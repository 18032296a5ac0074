/**
 * @file
 * Parallel execution of independent sweep cells.
 *
 * Every figure/table harness is a grid sweep: N independent cells,
 * each of which builds a private Cluster (with its own Simulator, RNG
 * chain, Tracer and StatSet), runs it, and produces a small result
 * struct. Cells share nothing — the only ambient state the sim layer
 * uses, the current TraceContext, is thread_local (common/trace.hh) —
 * so they can run on a worker pool.
 *
 * Determinism contract: the runner only changes *which thread* runs a
 * cell, never what the cell computes. Each cell derives its seeds from
 * the cell coordinates exactly as the serial loop did, and results are
 * collected into a pre-sized slot per cell; callers print tables and
 * emit report rows from those slots after run() returns, in cell
 * order. A --json report is therefore byte-identical for any --jobs
 * value (tests/parallel_sweep_test.cc holds this at jobs 1 vs 8), and
 * for the same reason --jobs must never be written into report params.
 *
 * Usage:
 *
 *   const unsigned jobs = bench::jobsFromArgs(args); // before finish()
 *   ...
 *   bench::SweepRunner runner(jobs);
 *   std::vector<CellResult> results(cells.size());
 *   runner.run(cells.size(),
 *              [&](std::size_t i) { results[i] = runCell(cells[i]); });
 *   // ... print / report from results in index order ...
 */

#ifndef BENCH_SWEEP_RUNNER_HH
#define BENCH_SWEEP_RUNNER_HH

#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_util.hh"

namespace bench {

/** Worker count from --jobs=N (default 1 = serial; 0 means "all
 *  hardware threads"). */
inline unsigned
jobsFromArgs(Args &args)
{
    const std::int64_t jobs = args.getInt("jobs", 1);
    if (jobs <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        return hw > 0 ? hw : 1;
    }
    return static_cast<unsigned>(jobs);
}

class SweepRunner
{
  public:
    explicit SweepRunner(unsigned jobs) : jobs_(jobs > 0 ? jobs : 1) {}

    unsigned jobs() const { return jobs_; }

    /**
     * Invoke fn(i) once for every i in [0, cells), spread over the
     * worker pool, and block until all cells finished. With one job
     * (or one cell) everything runs on the calling thread. The first
     * exception thrown by a cell is rethrown here after the pool
     * drains.
     */
    template <typename Fn>
    void
    run(std::size_t cells, Fn fn)
    {
        if (cells == 0)
            return;
        const unsigned workers =
            jobs_ < cells ? jobs_ : static_cast<unsigned>(cells);
        if (workers <= 1) {
            for (std::size_t i = 0; i < cells; ++i)
                fn(i);
            return;
        }

        std::atomic<std::size_t> next{0};
        std::atomic<bool> failed{false};
        std::exception_ptr error;
        std::mutex errorMutex;

        auto worker = [&] {
            for (;;) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= cells || failed.load(std::memory_order_relaxed))
                    return;
                try {
                    fn(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(errorMutex);
                    if (!error)
                        error = std::current_exception();
                    failed.store(true, std::memory_order_relaxed);
                    return;
                }
            }
        };

        std::vector<std::thread> pool;
        pool.reserve(workers - 1);
        for (unsigned t = 1; t < workers; ++t)
            pool.emplace_back(worker);
        worker();
        for (std::thread &t : pool)
            t.join();
        if (error)
            std::rethrow_exception(error);
    }

  private:
    unsigned jobs_;
};

} // namespace bench

#endif // BENCH_SWEEP_RUNNER_HH
