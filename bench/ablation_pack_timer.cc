/**
 * @file
 * Ablation: the FTL pack timer (section 5's "packing logic waits for
 * up to 1 ms (tunable)"). Sweeps the timeout and reports MFTL put
 * latency, get latency and throughput under a mixed workload.
 *
 * Expected trade-off: a short timer wastes page capacity on
 * mostly-empty pages (more program operations, more GC) but bounds put
 * latency; a long timer packs densely but parks puts in the buffer.
 *
 * --jobs=N runs sweep cells on N worker threads (sweep_runner.hh);
 * output is identical for any N.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "flash/ssd.hh"
#include "ftl/mftl.hh"
#include "sim/simulator.hh"
#include "sweep_runner.hh"
#include "workload/micro.hh"

using common::kMicrosecond;
using common::kSecond;
using common::toMicros;

namespace {

struct Cell
{
    double kReqPerSec = 0;
    double getLatencyUs = 0;
    double putLatencyUs = 0;
    std::uint64_t pagesWritten = 0;
};

Cell
runCell(common::Duration timeout, std::uint64_t keys,
        common::Duration warmup, common::Duration measure)
{
    sim::Simulator sim;
    flash::SsdDevice ssd(sim,
                         flash::Geometry::scaledFor(keys * 512, 0.35));
    ftl::Mftl::Config cfg;
    cfg.packTimeout = timeout;
    ftl::Mftl mftl(sim, ssd, cfg);

    workload::MicroConfig mcfg;
    mcfg.getPercent = 95;
    mcfg.workers = 48;
    mcfg.numKeys = keys;
    workload::MicroBench micro(sim, mftl, mcfg);
    micro.populate();
    mftl.start();
    micro.start();
    sim.runUntil(sim.now() + warmup);
    micro.resetMeasurement();
    mftl.stats().reset();
    sim.runFor(measure);

    Cell cell;
    cell.kReqPerSec = micro.throughput(measure) / 1000.0;
    cell.getLatencyUs = toMicros(
        static_cast<common::Duration>(micro.getLatency().mean()));
    cell.putLatencyUs = toMicros(
        static_cast<common::Duration>(micro.putLatency().mean()));
    cell.pagesWritten =
        mftl.stats().counterValue("mftl.pages_written");
    return cell;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Args args(argc, argv);
    const std::uint64_t keys = args.getInt("keys", 30'000);
    const auto warmup = args.getInt("warmup", 1) * kSecond;
    const auto measure = args.getInt("seconds", 2) * kSecond;
    const unsigned jobs = bench::jobsFromArgs(args);
    const std::string json_path = args.getString("json", "");
    args.finish();

    bench::Report report("ablation_pack_timer");
    report.params()
        .set("keys", keys)
        .set("warmup_s", common::toSeconds(warmup))
        .set("seconds", common::toSeconds(measure));

    bench::printHeader(
        "Ablation: pack-timer sweep (MFTL, 95% gets — sparse writes)\n"
        "put latency vs page-fill efficiency");
    std::printf("%12s | %10s | %10s | %10s | %12s\n", "pack timeout",
                "k req/s", "get lat us", "put lat us",
                "pages written");
    std::printf("-------------+------------+------------+------------+"
                "-------------\n");

    const std::vector<common::Duration> timeouts = {
        100 * kMicrosecond,  250 * kMicrosecond, 500 * kMicrosecond,
        1000 * kMicrosecond, 2000 * kMicrosecond, 4000 * kMicrosecond};

    bench::SweepRunner runner(jobs);
    std::vector<Cell> cells(timeouts.size());
    runner.run(timeouts.size(), [&](std::size_t i) {
        cells[i] = runCell(timeouts[i], keys, warmup, measure);
    });

    for (std::size_t i = 0; i < timeouts.size(); ++i) {
        const Cell &cell = cells[i];
        std::printf("%9.1f ms | %10.0f | %10.1f | %10.1f | %12llu\n",
                    common::toMillis(timeouts[i]), cell.kReqPerSec,
                    cell.getLatencyUs, cell.putLatencyUs,
                    static_cast<unsigned long long>(cell.pagesWritten));
        report.addRow()
            .set("pack_timeout_ms", common::toMillis(timeouts[i]))
            .set("kreq_per_sec", cell.kReqPerSec)
            .set("get_latency_us", cell.getLatencyUs)
            .set("put_latency_us", cell.putLatencyUs)
            .set("pages_written", cell.pagesWritten);
    }
    report.write(json_path);
    return 0;
}
