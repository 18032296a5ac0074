/**
 * @file
 * Run copies of one simulation cell at the same time, one per worker
 * thread of a bench::SweepRunner — the pool `--jobs` runs sweep cells
 * on. A cell shares nothing with its neighbours except thread_local
 * ambient state (common/trace.hh), so every copy must produce the same
 * bytes as a copy run alone; tests compare them to catch state that
 * leaks between concurrent simulators or depends on the thread.
 */

#ifndef TESTS_RUN_ON_WORKERS_HH
#define TESTS_RUN_ON_WORKERS_HH

#include <cstddef>
#include <vector>

#include "../bench/sweep_runner.hh"

namespace testutil {

/** fn() run `copies` times concurrently, one copy per worker thread
 *  (on the calling thread when copies is 1); results in copy order. */
template <typename Fn>
auto
runOnWorkers(unsigned copies, Fn fn) -> std::vector<decltype(fn())>
{
    std::vector<decltype(fn())> out(copies);
    bench::SweepRunner(copies).run(copies,
                                   [&](std::size_t i) { out[i] = fn(); });
    return out;
}

} // namespace testutil

#endif // TESTS_RUN_ON_WORKERS_HH
