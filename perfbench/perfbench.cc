/**
 * @file
 * perfbench — the repository's end-to-end benchmark: host cost per
 * committed simulated transaction on three reference scenarios, split
 * by layer, measured from outside the simulator through its public
 * API only.
 *
 *   perfbench --workload=NAME --seed=N --seconds=N --trace=0|1
 *
 * One "rep" builds a fresh Cluster (classic single-simulator mode),
 * populates it, runs a closed-loop Retwis fleet through a fixed
 * simulated warm-up and a fixed simulated measured phase, and reads
 * every public StatSet. A run pools a suite of kSubSeeds scenarios
 * seeded from --seed and repeats whole cycles over it until --seconds
 * of wall time are spent (at least two), so every model output must
 * repeat exactly. Host times are medians over cycles, divided by the
 * machine's slowdown against a fixed calibration kernel timed between
 * chunks of the measured phase (see README.md).
 *
 * --trace=0 prints the end-to-end metrics of untraced reps.
 * --trace=1 alternates untraced and traced cycles and prints the
 * per-layer metrics. A traced rep attaches a TraceLog whose observer
 * aggregates simulated span self time per layer and feeds an
 * InvariantMonitor, a MetricsRegistry (for the flash.* series), and a
 * SIGPROF sampler whose stacks split host time by layer namespace.
 *
 * The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 * A failed correctness or determinism check names the metric on
 * standard error, prints "correct": false and exits 1. A bad flag
 * exits 2.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fcntl.h>
#include <iostream>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <sys/resource.h>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "common/invariant_monitor.hh"
#include "common/metrics.hh"
#include "common/trace.hh"
#include "sampler.hh"
#include "semel/messages.hh"
#include "workload/cluster.hh"
#include "workload/retwis.hh"

// Heap traffic is counted by interposing the global allocation
// functions in this binary, as bench/sim_core and bench/store_core do,
// so allocs/commit is exact.
namespace {

std::atomic<std::uint64_t> g_allocCalls{0};

void *
countedAlloc(std::size_t size)
{
    g_allocCalls.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(size ? size : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    g_allocCalls.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}
void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    g_allocCalls.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace perfbench {

using common::Duration;
using common::kMillisecond;
using common::Time;
using workload::BackendKind;
using workload::ClockKind;
using workload::Cluster;
using workload::ClusterConfig;
using workload::RetwisConfig;
using workload::RetwisWorkload;

/** The paper's measured software-PTP client skew (section 5.3). */
constexpr double kPaperPtpSwSkewUs = 53.2;
/** Sampling window of the traced reps' MetricsRegistry. */
constexpr Duration kMetricsInterval = 100 * kMillisecond;
/** The measured phase runs as this many equal runUntil chunks; RSS is
 *  sampled between them. */
constexpr int kChunks = 20;
/** One calibration call, after a chunk, on the reference host (4-CPU
 *  Xeon) in its fastest phases. */
constexpr double kCalibrationRefNs = 3.5e6;
/** Scenarios (seeds derived from --seed) pooled into one run. */
constexpr std::uint64_t kSubSeeds = 4;
/** Fewest SIGPROF samples a traced run needs for its layer split to
 *  mean something. ITIMER_PROF fires at most once per kernel tick, so
 *  one traced cycle takes about 1000 on a 250 Hz kernel. */
constexpr std::size_t kMinSamples = 500;

struct Workload
{
    std::string name;
    ClusterConfig cluster;
    RetwisConfig retwis;
    Duration warmup = 0;
    Duration measure = 0;
};

std::optional<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    ClusterConfig &c = w.cluster;
    RetwisConfig &r = w.retwis;
    if (name == "fig6_flash_contended") {
        c.numShards = 1;
        c.replicasPerShard = 1;
        c.numClients = 32;
        c.backend = BackendKind::Mftl;
        c.clocks = ClockKind::Perfect;
        c.numKeys = 20'000;
        // Figure 6's same-machine "network": IPC-scale latency.
        c.net.oneWayMean = 5 * common::kMicrosecond;
        c.net.oneWaySigma = 1 * common::kMicrosecond;
        c.net.minLatency = 1 * common::kMicrosecond;
        r.alpha = 0.8;
        w.warmup = 300 * kMillisecond;
        w.measure = 2000 * kMillisecond;
    } else if (name == "shard8_readmostly") {
        c.numShards = 8;
        c.replicasPerShard = 3;
        c.numClients = 64;
        c.backend = BackendKind::Dram;
        c.clocks = ClockKind::Perfect;
        c.numKeys = 50'000;
        c.localValidation = true;
        r.alpha = 0.6;
        r.readHeavy = true;
        w.warmup = 200 * kMillisecond;
        w.measure = 900 * kMillisecond;
    } else if (name == "fig7_ptp_replicated") {
        c.numShards = 1;
        c.replicasPerShard = 3;
        c.numClients = 20;
        c.backend = BackendKind::Mftl;
        c.clocks = ClockKind::PtpSw;
        c.numKeys = 20'000;
        r.alpha = 0.9;
        w.warmup = 300 * kMillisecond;
        w.measure = 3000 * kMillisecond;
    } else {
        return std::nullopt;
    }
    c.seed = seed;
    r.numKeys = c.numKeys;
    r.seed = seed + 100;
    return w;
}

double
wallNs()
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
cpuNs()
{
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e9 +
           static_cast<double>(ts.tv_nsec);
}

/** Current resident set in MB, read without allocating. */
double
rssMb()
{
    const int fd = open("/proc/self/statm", O_RDONLY);
    if (fd < 0)
        return 0.0;
    char buf[128];
    const ssize_t n = read(fd, buf, sizeof buf - 1);
    close(fd);
    if (n <= 0)
        return 0.0;
    buf[n] = '\0';
    unsigned long long size = 0, resident = 0;
    if (std::sscanf(buf, "%llu %llu", &size, &resident) != 2)
        return 0.0;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/** The calibration kernel's two tables: 1 MB stays in the core's L2,
 *  16 MB in the shared L3, so the kernel feels both kinds of contention
 *  the simulator does (its live data is ~30 MB to ~300 MB). */
std::vector<std::uint64_t> g_l2Table(std::size_t{1} << 17);
std::vector<std::uint64_t> g_l3Table(std::size_t{1} << 21);
volatile std::uint64_t g_calibrationSink = 0;

/** Random read-modify-writes over @p table, like the simulator's table
 *  probes, plus (if @p branchy) data-dependent branches like its
 *  dispatch. Every pass touches the same slots in the same order. */
void
calibrationPass(std::vector<std::uint64_t> &table, bool branchy)
{
    std::uint64_t x = 88172645463325252ull;
    std::uint64_t acc = 0;
    for (int i = 0; i < 200'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if (branchy) {
            if (x & 1)
                acc += x >> 3;
            else
                acc ^= x * 31;
            if ((x >> 5) % 3 == 0)
                acc = acc * 7 + 1;
        }
        std::uint64_t &slot = table[x & (table.size() - 1)];
        acc += slot;
        slot = acc ^ x;
    }
    g_calibrationSink = acc;
}

/** Wall ns of the second of two identical passes. The untimed first
 *  pass brings the table back into its cache level, whatever the
 *  simulator left there, so the timed pass always starts from the same
 *  cache state. */
double
warmPassNs(std::vector<std::uint64_t> &table, bool branchy)
{
    calibrationPass(table, branchy);
    const double t0 = wallNs();
    calibrationPass(table, branchy);
    return wallNs() - t0;
}

/**
 * The calibration kernel: one warm pass over each table. It uses no
 * repository code, and the simulator's memory footprint does not move
 * it (checked with a 30 MB and a 300 MB footprint between calls; see
 * README.md). Returns its wall time in ns.
 */
double
calibrationCall()
{
    return warmPassNs(g_l2Table, true) + warmPassNs(g_l3Table, false);
}

double
peakRssMb()
{
    rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n == 0 ? 0.0
                  : (n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

/**
 * TraceLog observer: simulated self time and span counts per layer
 * (the name's prefix before the first '.'). Self time is a span's
 * duration minus the union of its children's intervals, children being
 * found through parentSpan. Because the observer sees every append,
 * ring eviction loses nothing. Only spans that end while measuring
 * count.
 */
class SpanProfile
{
  public:
    struct Layer
    {
        double selfNs = 0.0;
        std::uint64_t spans = 0;
    };

    void
    onEvent(const common::TraceEvent &e)
    {
        if (e.kind == common::TraceKind::SpanBegin) {
            Open &o = open_[e.span];
            o.begin = e.trueTime;
            o.parent = e.parentSpan;
            o.layer = e.name.substr(0, e.name.find('.'));
            o.children.clear();
            return;
        }
        if (e.kind != common::TraceKind::SpanEnd)
            return;
        auto it = open_.find(e.span);
        if (it == open_.end())
            return;
        Open &o = it->second;
        const Time end = e.trueTime;
        if (measuring_) {
            Layer &layer = layers_[o.layer];
            layer.selfNs += static_cast<double>(
                (end - o.begin) - covered(o.children, o.begin, end));
            ++layer.spans;
        }
        if (auto p = open_.find(o.parent); p != open_.end())
            p->second.children.emplace_back(o.begin, end);
        open_.erase(it);
    }

    /** Forget spans a previous rep left open: span ids restart with
     *  every TraceLog. */
    void newLog() { open_.clear(); }
    void setMeasuring(bool on) { measuring_ = on; }
    const std::map<std::string, Layer> &layers() const { return layers_; }

  private:
    struct Open
    {
        Time begin = 0;
        std::uint64_t parent = 0;
        std::string layer;
        std::vector<std::pair<Time, Time>> children;
    };

    /** Length of the union of @p spans clipped to [lo, hi]. */
    static Duration
    covered(std::vector<std::pair<Time, Time>> &spans, Time lo, Time hi)
    {
        std::sort(spans.begin(), spans.end());
        Duration total = 0;
        Time reach = lo;
        for (auto [b, e] : spans) {
            b = std::max(b, reach);
            e = std::min(e, hi);
            if (e > b) {
                total += e - b;
                reach = e;
            }
        }
        return total;
    }

    std::unordered_map<std::uint64_t, Open> open_;
    std::map<std::string, Layer> layers_;
    bool measuring_ = false;
};

/**
 * One rep's measurements. `counts` holds additive quantities of the
 * measured phase (so a suite of sub-seeds pools them by summing); with
 * the two histograms they are the model outputs that must repeat
 * exactly for a given seed.
 */
struct Rep
{
    std::uint64_t seed = 0;
    bool traced = false;
    double setupS = 0;
    double populateS = 0;
    double measuredWallNs = 0;
    double measuredCpuNs = 0;
    /**
     * How much slower this machine ran than the reference host during
     * the rep: the median calibration call over kCalibrationRefNs.
     * Host times divided by it are in reference-host ns, which other
     * processes sharing the machine move far less than raw wall time.
     */
    double slowdown = 1.0;
    std::uint64_t events = 0;
    std::uint64_t allocs = 0;
    double rssGrowthMb = 0;
    std::map<std::string, double> counts;
    common::Histogram latency;
    common::Histogram replWait;
    /** Traced reps only: flash.* series of the MetricsRegistry. */
    double flashOps = 0;
    std::vector<double> queueWaitP99Us;
    std::string gateError;
};

std::uint64_t
sumCounters(const common::StatSet &set, const std::string &suffix)
{
    std::uint64_t total = 0;
    for (const auto &[name, counter] : set.counters()) {
        const auto dot = name.find('.');
        if (dot != std::string::npos &&
            name.size() == dot + 1 + suffix.size() &&
            name.compare(dot + 1, suffix.size(), suffix) == 0)
            total += counter.value();
    }
    return total;
}

/** Backend counters summed over every storage node. */
common::StatSet
backendStats(Cluster &cluster)
{
    common::StatSet merged;
    for (std::size_t i = 0; i < cluster.numServers(); ++i)
        merged.merge(cluster.server(i).backend().stats());
    return merged;
}

Rep
runRep(const Workload &w, bool traced, Sampler *sampler,
       SpanProfile *spans)
{
    Rep rep;
    rep.seed = w.cluster.seed;
    rep.traced = traced;
    ClusterConfig cfg = w.cluster;

    std::unique_ptr<common::TraceLog> log;
    std::unique_ptr<common::InvariantMonitor> monitor;
    std::unique_ptr<common::MetricsRegistry> metrics;
    if (traced) {
        log = std::make_unique<common::TraceLog>();
        spans->newLog();
        // The same rules milana-sim --monitor applies.
        common::InvariantMonitor::Config mcfg;
        mcfg.checkSnapshotReads = cfg.backend != BackendKind::SingleVersion;
        mcfg.checkReplicationBeforeAck = cfg.replicasPerShard > 1;
        monitor = std::make_unique<common::InvariantMonitor>(mcfg,
                                                             &std::cerr);
        log->setObserver([m = monitor.get(), spans](
                             const common::TraceEvent &e) {
            m->onEvent(e);
            spans->onEvent(e);
        });
        metrics = std::make_unique<common::MetricsRegistry>(kMetricsInterval);
        cfg.trace = log.get();
        cfg.metrics = metrics.get();
    }

    const double setup0 = wallNs();
    Cluster cluster(cfg);
    const double populate0 = wallNs();
    cluster.populate();
    rep.populateS = (wallNs() - populate0) / 1e9;
    cluster.start();
    rep.setupS = (wallNs() - setup0) / 1e9;

    RetwisWorkload fleet(cluster, w.retwis);
    fleet.start();

    // Warm up, ending on a metrics-window boundary so the measured
    // phase covers whole windows.
    const Time warmEnd =
        (cluster.now() + w.warmup + kMetricsInterval - 1) /
        kMetricsInterval * kMetricsInterval;
    cluster.runUntil(warmEnd);
    fleet.resetMeasurement();
    cluster.resetStats();
    // Network, clock and backend stats are not reset: take deltas.
    const common::StatSet net0 = cluster.network().stats();
    const common::StatSet clock0 = cluster.clockStats();
    const common::StatSet backend0 = backendStats(cluster);
    const Time measureStart = cluster.now();

    // Each chunk is followed by one calibration call, so the rep's
    // slowdown samples the machine at the same moments as the chunks.
    // The calls are outside the timed and sampled phase.
    if (spans != nullptr)
        spans->setMeasuring(true);
    std::vector<double> calibration;
    calibration.reserve(kChunks);
    const double rss0 = rssMb();
    const std::uint64_t allocs0 = g_allocCalls.load();
    for (int k = 1; k <= kChunks; ++k) {
        if (sampler != nullptr)
            sampler->start();
        const double cpu0 = cpuNs();
        const double wall0 = wallNs();
        rep.events += cluster.runUntil(measureStart + w.measure * k / kChunks);
        rep.measuredWallNs += wallNs() - wall0;
        rep.measuredCpuNs += cpuNs() - cpu0;
        if (sampler != nullptr)
            sampler->stop();
        rep.rssGrowthMb = rssMb() - rss0;
        calibration.push_back(calibrationCall());
    }
    rep.allocs = g_allocCalls.load() - allocs0;
    rep.slowdown = median(calibration) / kCalibrationRefNs;
    if (spans != nullptr)
        spans->setMeasuring(false);
    const Time measureEnd = cluster.now();

    // Read the measured phase before the wind-down moves any counter.
    const common::StatSet client = cluster.clientStats();
    const common::StatSet server = cluster.serverStats();
    const common::StatSet net = cluster.network().stats();
    const common::StatSet clock = cluster.clockStats();
    const common::StatSet backend = backendStats(cluster);
    auto &n = rep.counts;
    n["commits"] = static_cast<double>(fleet.totalCommits());
    n["aborts"] = static_cast<double>(fleet.totalAborts());
    rep.latency = fleet.mergedLatency();
    for (std::size_t i = 0; i < cluster.numServers(); ++i)
        n["txn_entries"] +=
            static_cast<double>(cluster.server(i).txnTable().size());
    n["skew_us"] = cluster.avgClientSkew() / 1000.0;

    cluster.runFor(0);
    cluster.finishTrace();
    cluster.finishMetrics();

    for (const char *name :
         {"txn.begun", "txn.committed", "txn.aborted", "txn.failed",
          "txn.read_failures", "txn.client_aborts", "txn.local_validations",
          "txn.local_validation_fail"})
        n[name] = static_cast<double>(client.counterValue(name));
    // Every reason a fault-free run can produce (clock_suspect and
    // timeout need an injected fault).
    for (int r = static_cast<int>(semel::AbortReason::ReadPrepared);
         r <= static_cast<int>(semel::AbortReason::PrepareFailed); ++r) {
        const std::string name =
            std::string("txn.abort.") +
            semel::abortReasonName(static_cast<semel::AbortReason>(r));
        n[name] = static_cast<double>(client.counterValue(name));
    }
    // MILANA replicates transaction records itself; SEMEL's own put
    // path (semel.puts, semel.repl_wait) is idle under Retwis.
    for (const char *name : {"milana.votes_commit", "milana.prepares",
                             "milana.replica_records"})
        n[name] = static_cast<double>(server.counterValue(name));
    if (const common::Histogram *h = server.findHistogram("milana.repl_wait"))
        rep.replWait = *h;
    n["net.calls"] = static_cast<double>(net.counterValue("net.calls") -
                                         net0.counterValue("net.calls"));
    n["clocksync.exchanges"] =
        static_cast<double>(clock.counterValue("clocksync.exchanges") -
                            clock0.counterValue("clocksync.exchanges"));
    for (const char *op : {"gets", "puts", "gc_erases"})
        n[std::string("ftl.") + op] = static_cast<double>(
            sumCounters(backend, op) - sumCounters(backend0, op));

    // Correctness gate: every begun txn ended one way or is in flight
    // (at most one per client at either edge of the window), and the
    // Retwis fleet's view matches the client library's.
    auto str = [](double count) {
        return std::to_string(static_cast<std::uint64_t>(count));
    };
    const double ended = n["txn.committed"] + n["txn.aborted"] +
                         n["txn.failed"] + n["txn.client_aborts"];
    if (std::abs(n["txn.begun"] - ended) > cfg.numClients)
        rep.gateError = "txn.begun (" + str(n["txn.begun"]) +
                        ") != committed+aborted+failed+client_aborts (" +
                        str(ended) + ") beyond one in-flight txn per client";
    else if (n["commits"] != n["txn.committed"])
        rep.gateError = "workload totalCommits() (" + str(n["commits"]) +
                        ") != txn.committed (" + str(n["txn.committed"]) + ")";
    else if (n["commits"] == 0)
        rep.gateError = "no transaction committed";
    if (traced && !monitor->ok())
        rep.gateError = "invariant monitor: " +
                        std::to_string(monitor->violationCount()) +
                        " violation(s)";
    if (traced && cluster.traceEventsLost() != 0)
        rep.gateError = "trace events lost before the monitor saw them";

    if (traced) {
        // flash.* series of the attached registry, measured windows only.
        for (const auto *s : metrics->log().sorted()) {
            const bool ops = s->name == "flash.ssd.reads" ||
                             s->name == "flash.ssd.programs" ||
                             s->name == "flash.ssd.erases";
            const bool wait = s->name == "flash.ssd.queue_wait";
            if (!ops && !wait)
                continue;
            for (const common::MetricPoint &p : s->points()) {
                if (p.windowStart < measureStart || p.windowEnd > measureEnd)
                    continue;
                if (ops)
                    rep.flashOps += p.value;
                else if (p.count > 0)
                    rep.queueWaitP99Us.push_back(
                        static_cast<double>(p.p99) / 1000.0);
            }
        }
    }
    return rep;
}

/**
 * Why two reps of one seed differ, or "" when every model output and
 * exact count agrees. Host counters (events, allocations) are compared
 * only between untraced reps: tracing adds metrics-sampler events and
 * its own allocations.
 */
std::string
repMismatch(const Rep &a, const Rep &b)
{
    for (const auto &[name, value] : a.counts)
        if (b.counts.at(name) != value)
            return name;
    if (a.latency.p50() != b.latency.p50() ||
        a.latency.p999() != b.latency.p999() ||
        a.latency.count() != b.latency.count())
        return "sim_latency";
    if (a.replWait.p99() != b.replWait.p99())
        return "milana.repl_wait";
    if (!a.traced && !b.traced) {
        if (a.events != b.events)
            return "sim.events_per_commit";
        if (a.allocs != b.allocs)
            return "allocs_per_commit";
    }
    if (a.traced && b.traced && a.flashOps != b.flashOps)
        return "flash.ops_per_commit";
    return "";
}

// ---------------------------------------------------------------- output

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("\n%-40s %20s  %s\n", "metric", "value", "unit");
    for (const Metric &m : metrics)
        std::printf("%-40s %20.6f  %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i != 0)
            line += ", ";
        line += "\"" + metrics[i].name + "\": {\"value\": " +
                jsonNumber(metrics[i].value) + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

std::string
cpuModel()
{
    FILE *f = std::fopen("/proc/cpuinfo", "r");
    if (f == nullptr)
        return "unknown";
    char line[512];
    std::string model = "unknown";
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::strncmp(line, "model name", 10) == 0) {
            const char *colon = std::strchr(line, ':');
            if (colon != nullptr) {
                model = colon + 1;
                model.erase(0, model.find_first_not_of(' '));
                model.erase(model.find_last_not_of("\n ") + 1);
            }
            break;
        }
    }
    std::fclose(f);
    return model;
}

const char *
buildType()
{
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    return "optimized, NDEBUG";
#elif defined(__OPTIMIZE__)
    return "optimized, assertions on";
#else
    return "unoptimized";
#endif
}

// ------------------------------------------------------------------ main

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    int trace = 0;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload=NAME --seed=N --seconds=N "
                 "--trace=0|1\n"
                 "workloads: fig6_flash_contended shard8_readmostly "
                 "fig7_ptp_replicated\n",
                 why.c_str());
    std::exit(2);
}

bool
parseUnsigned(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || text.size() > 19 ||
        text.find_first_not_of("0123456789") != std::string::npos)
        return false;
    out = std::stoull(text);
    return true;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        if (arg.rfind("--", 0) != 0 || eq == std::string::npos)
            usage("unexpected argument '" + arg + "'");
        const std::string key = arg.substr(2, eq - 2);
        const std::string value = arg.substr(eq + 1);
        std::uint64_t n = 0;
        if (key == "workload") {
            o.workload = value;
            haveWorkload = true;
        } else if (key == "seed" && parseUnsigned(value, n)) {
            o.seed = n;
        } else if (key == "seconds" && parseUnsigned(value, n) && n >= 1 &&
                   n <= 3600) {
            o.seconds = static_cast<int>(n);
        } else if (key == "trace" && (value == "0" || value == "1")) {
            o.trace = value == "1";
        } else {
            usage("bad flag '" + arg + "'");
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    return o;
}

int
run(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    // The run measures a suite of kSubSeeds scenarios whose seeds all
    // derive from --seed, and pools them: one scenario's outputs swing
    // with where its hot keys land, a suite's much less.
    std::vector<Workload> suite;
    for (std::uint64_t j = 0; j < kSubSeeds; ++j) {
        std::optional<Workload> w =
            makeWorkload(opt.workload, opt.seed * kSubSeeds + j);
        if (!w)
            usage("unknown workload '" + opt.workload + "'");
        suite.push_back(*w);
    }
    const Workload &w = suite.front();

    std::printf("perfbench: workload=%s seed=%llu seconds=%d trace=%d\n",
                w.name.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace);
    std::printf("host: cpu=\"%s\" nproc=%ld build=\"%s\" compiler=\"%s\"\n",
                cpuModel().c_str(), sysconf(_SC_NPROCESSORS_ONLN),
                buildType(), __VERSION__);
    std::printf("scenario: %u shard(s) x %u replica(s), %u clients, %s "
                "backend, %s clocks, alpha=%.2f, %s mix, %llu keys; "
                "%zu sub-seeds x (warmup %.2f s + measure %.2f s "
                "simulated)\n",
                w.cluster.numShards, w.cluster.replicasPerShard,
                w.cluster.numClients, workload::backendName(w.cluster.backend),
                workload::clockName(w.cluster.clocks), w.retwis.alpha,
                w.retwis.readHeavy ? "read-heavy" : "default",
                static_cast<unsigned long long>(w.cluster.numKeys),
                suite.size(), common::toSeconds(w.warmup),
                common::toSeconds(w.measure));
    if (std::string(buildType()) == "unoptimized")
        std::fprintf(stderr, "WARNING: unoptimized build; host-time "
                             "metrics are not representative\n");
    std::fflush(stdout);

    // Whole cycles over the suite until --seconds have passed, at least
    // two so every sub-seed repeats. With --trace=1 odd cycles are
    // traced.
    // The sampler's stack buffer is large; untraced runs do without it
    // so it stays out of peak_rss_mb.
    std::unique_ptr<Sampler> sampler;
    if (opt.trace == 1)
        sampler = std::make_unique<Sampler>();
    SpanProfile spans;
    std::vector<Rep> reps;
    const double deadline = wallNs() + opt.seconds * 1e9;
    std::size_t cycles = 0;
    std::size_t tracedCycles = 0;
    do {
        const bool traced = opt.trace == 1 && cycles % 2 == 1;
        for (const Workload &sw : suite) {
            reps.push_back(runRep(sw, traced, traced ? sampler.get() : nullptr,
                                  traced ? &spans : nullptr));
            const Rep &r = reps.back();
            std::printf("rep %zu seed %llu%s: setup %.3f s, measured %.3f s "
                        "wall %.3f s cpu, slowdown %.3f, %.0f commits, %llu "
                        "events, %llu allocs\n",
                        reps.size(), static_cast<unsigned long long>(r.seed),
                        traced ? " (traced)" : "", r.setupS,
                        r.measuredWallNs / 1e9, r.measuredCpuNs / 1e9,
                        r.slowdown, r.counts.at("commits"),
                        static_cast<unsigned long long>(r.events),
                        static_cast<unsigned long long>(r.allocs));
            std::fflush(stdout);
        }
        ++cycles;
        tracedCycles += traced;
    } while (cycles < 2 || wallNs() < deadline);

    // Correctness: every rep passes its gate and repeats the first rep
    // of its seed exactly (cycle 0 is never traced).
    std::string error;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const Rep &r = reps[i];
        const Rep &first = reps[i % suite.size()];
        attempted += static_cast<std::uint64_t>(r.counts.at("txn.begun"));
        failed += static_cast<std::uint64_t>(r.counts.at("txn.failed") +
                                             r.counts.at("txn.read_failures"));
        if (error.empty() && !r.gateError.empty())
            error = "seed " + std::to_string(r.seed) + ": " + r.gateError;
        if (const std::string m = repMismatch(first, r);
            error.empty() && !m.empty())
            error = "metric " + m + " differs between reps of seed " +
                    std::to_string(r.seed);
    }

    // Pool the suite: exact quantities from cycle 0, host times as the
    // median over cycles per seed, in reference-host ns.
    std::map<std::string, double> total;
    common::Histogram latency, replWait;
    double wallSum = 0, tracedWallSum = 0, rawWallSum = 0, cpuSum = 0,
           setupSum = 0, events = 0, allocs = 0, flashOps = 0;
    std::vector<double> queueWait, slowdowns;
    for (std::size_t j = 0; j < suite.size(); ++j) {
        const Rep &first = reps[j];
        for (const auto &[name, value] : first.counts)
            total[name] += value;
        latency.merge(first.latency);
        replWait.merge(first.replWait);
        events += static_cast<double>(first.events);
        allocs += static_cast<double>(first.allocs);
        if (opt.trace == 1) {
            // Cycle 1 is the first traced one.
            const Rep &t = reps[suite.size() + j];
            flashOps += t.flashOps;
            queueWait.insert(queueWait.end(), t.queueWaitP99Us.begin(),
                             t.queueWaitP99Us.end());
        }
        std::vector<double> wall, tracedWall, rawWall, cpu, setup;
        for (std::size_t i = j; i < reps.size(); i += suite.size()) {
            const Rep &r = reps[i];
            setup.push_back(r.setupS / r.slowdown);
            slowdowns.push_back(r.slowdown);
            if (!r.traced) {
                wall.push_back(r.measuredWallNs / r.slowdown);
                rawWall.push_back(r.measuredWallNs);
                cpu.push_back(r.measuredCpuNs);
                continue;
            }
            tracedWall.push_back(r.measuredWallNs / r.slowdown);
        }
        wallSum += median(wall);
        tracedWallSum += median(tracedWall);
        rawWallSum += median(rawWall);
        cpuSum += median(cpu);
        setupSum += median(setup);
    }
    std::vector<double> populateRate, rssGrowth;
    const double keyLoads =
        static_cast<double>(w.cluster.numKeys * w.cluster.replicasPerShard);
    for (const Rep &r : reps) {
        if (r.traced)
            continue;
        populateRate.push_back(ratio(keyLoads, r.populateS / r.slowdown));
        rssGrowth.push_back(ratio(r.rssGrowthMb, common::toSeconds(w.measure)));
    }

    const double k = static_cast<double>(suite.size());
    const double simS = k * common::toSeconds(w.measure);
    const double commits = total.at("commits");
    const double aborts = total.at("aborts");
    const double host = ratio(wallSum, commits);
    const double attempts = total.at("txn.committed") + total.at("txn.aborted");

    std::vector<Metric> out;
    if (opt.trace == 0) {
        out = {
            {"host_ns_per_commit", host, "ns"},
            {"sim_s_per_host_s", ratio(simS * 1e9, wallSum), "s/s"},
            {"allocs_per_commit", ratio(allocs, commits), "count"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"setup_s", setupSum / k, "s"},
            {"sim_commits_per_s", ratio(commits, simS), "1/s"},
            {"sim_abort_pct", 100.0 * ratio(aborts, aborts + commits), "%"},
            {"sim_latency_p50_ms", common::toMillis(latency.p50()), "ms"},
            {"sim_latency_p999_ms", common::toMillis(latency.p999()), "ms"},
        };
        std::printf("\nfailed_pct %.6f %% (%llu of %llu begun txns failed; "
                    "reported as the failed and attempted fields)\n",
                    100.0 * ratio(total.at("txn.failed") +
                                      total.at("txn.read_failures"),
                                  total.at("txn.begun")),
                    static_cast<unsigned long long>(failed),
                    static_cast<unsigned long long>(attempted));
    } else {
        const double traced = ratio(tracedWallSum, commits);
        const auto counts = sampler->attribute(repoLayerRules());
        std::uint64_t attributed = 0;
        for (const auto &[layer, n] : counts)
            attributed += n;
        if (error.empty() && attributed != sampler->samples())
            error = "metric profile.samples: " + std::to_string(attributed) +
                    " attributed, " + std::to_string(sampler->samples()) +
                    " taken";
        else if (error.empty() && sampler->samples() < kMinSamples)
            error = "metric profile.samples: " +
                    std::to_string(sampler->samples()) + " < " +
                    std::to_string(kMinSamples) +
                    ", too few for a layer split";
        const auto split = splitByShare(counts, repoLayers(), traced);

        const double skewUs = total.at("skew_us") / k;
        const double tracedCommits =
            commits * static_cast<double>(tracedCycles);
        out = {
            {"sim.events_per_commit", ratio(events, commits), "count"},
            {"sim.host_ns_per_event", ratio(wallSum, events), "ns"},
            {"net.rpcs_per_commit", ratio(total.at("net.calls"), commits),
             "count"},
            {"clocksync.exchanges_per_sim_s",
             ratio(total.at("clocksync.exchanges"), simS), "1/s"},
            {"clocksync.avg_skew_us", skewUs, "us"},
            {"clocksync.skew_err_pct",
             w.cluster.clocks == ClockKind::PtpSw
                 ? 100.0 * std::abs(skewUs - kPaperPtpSwSkewUs) /
                       kPaperPtpSwSkewUs
                 : 0.0,
             "%"},
            {"flash.ops_per_commit", ratio(flashOps, commits), "count"},
            {"flash.queue_wait_p99_us", median(queueWait), "us"},
            {"ftl.gets_per_commit", ratio(total.at("ftl.gets"), commits),
             "count"},
            {"ftl.puts_per_commit", ratio(total.at("ftl.puts"), commits),
             "count"},
            {"ftl.gc_erases_per_commit",
             ratio(total.at("ftl.gc_erases"), commits), "count"},
            {"ftl.populate_keys_per_s", median(populateRate), "1/s"},
            {"milana.repl_records_per_commit",
             ratio(total.at("milana.replica_records"), commits), "count"},
            {"milana.repl_wait_p99_us",
             static_cast<double>(replWait.p99()) / 1000.0, "us"},
            {"milana.commit_vote_ratio",
             ratio(total.at("milana.votes_commit"),
                   total.at("milana.prepares")),
             "ratio"},
        };
        for (const auto &[name, value] : total)
            if (name.rfind("txn.abort.", 0) == 0)
                out.push_back({"milana.abort_pct." + name.substr(10),
                               100.0 * ratio(value, attempts), "%"});
        const double lv = total.at("txn.local_validations");
        out.push_back({"milana.local_validation_ok_ratio",
                       ratio(lv - total.at("txn.local_validation_fail"), lv),
                       "ratio"});
        out.push_back({"milana.txn_entries_end", total.at("txn_entries") / k,
                       "count"});
        out.push_back({"workload.attempts_per_commit",
                       ratio(commits + aborts, commits), "count"});
        out.push_back({"process.wall_ns_per_commit",
                       ratio(rawWallSum, commits), "ns"});
        out.push_back({"process.cpu_ns_per_commit", ratio(cpuSum, commits),
                       "ns"});
        out.push_back({"process.slowdown", median(slowdowns), "ratio"});
        out.push_back({"process.rss_growth_mb_per_sim_s", median(rssGrowth),
                       "MB/s"});
        // The layers that emit spans under Retwis (SEMEL's own put path
        // and clocksync emit none).
        for (const char *layer : {"milana", "net", "flash"}) {
            auto it = spans.layers().find(layer);
            const SpanProfile::Layer l = it == spans.layers().end()
                                             ? SpanProfile::Layer{}
                                             : it->second;
            out.push_back({std::string(layer) + ".sim_us_per_commit",
                           ratio(l.selfNs / 1000.0, tracedCommits), "us"});
            out.push_back({std::string(layer) + ".spans_per_commit",
                           ratio(static_cast<double>(l.spans), tracedCommits),
                           "count"});
        }
        for (const std::string &layer : repoLayers())
            out.push_back({layer + ".host_ns_per_commit", split.at(layer),
                           "ns"});
        out.push_back({"profile.traced_host_ns_per_commit", traced, "ns"});
        out.push_back({"profile.samples",
                       static_cast<double>(sampler->samples()), "count"});
        out.push_back({"trace.overhead_pct",
                       100.0 * (ratio(traced, host) - 1.0), "%"});
    }

    if (!error.empty())
        std::fprintf(stderr, "perfbench: FAILED: %s\n", error.c_str());
    printResult(error.empty(), attempted, failed, out);
    return error.empty() ? 0 : 1;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(argc, argv);
}
