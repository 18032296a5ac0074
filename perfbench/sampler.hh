/**
 * @file
 * Host-time split by layer, measured from outside the simulator: a
 * SIGPROF sampler that records call stacks, and an attribution pass
 * that resolves them against the executable's own ELF symbol table.
 *
 * Each sample goes to the innermost frame whose function lives in one
 * of the layer namespaces (so `std::map` internals called from
 * `milana::TxnTable` count as milana). Samples with no such frame go
 * to "other". No outside profiler is involved: stacks come from
 * glibc's backtrace(), names from /proc/self/exe's .symtab.
 */

#ifndef PERFBENCH_SAMPLER_HH
#define PERFBENCH_SAMPLER_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** A qualified-name prefix and the layer it stands for. */
struct LayerRule
{
    std::string prefix; ///< e.g. "milana::" or "common::TraceLog::"
    std::string layer;  ///< e.g. "milana" or "trace"
};

/**
 * The repository's layers, most specific prefix first. Observability
 * code (trace log, tracer, spans, invariant monitor) and the
 * benchmark's own observer map to "trace"; the rest of `common::`
 * (stats, histograms, RNG, Zipf) is "common".
 */
const std::vector<LayerRule> &repoLayerRules();

/** Every layer repoLayerRules() names, plus "other", in report order. */
const std::vector<std::string> &repoLayers();

/**
 * The function's qualified name from a demangled symbol: the last
 * top-level token before the parameter list, so a leading return type
 * ("sim::Task<void> workload::X::run(...)") and thunk prefixes are
 * dropped. "(anonymous namespace)" becomes "anon".
 */
std::string qualifiedName(const std::string &demangled);

/**
 * Statistical profiler over ITIMER_PROF. At most one sampler may be
 * running at a time. Samples are stored in a pre-sized buffer, so the
 * signal handler never allocates; samples beyond kCapacity (at least a
 * minute of CPU time) are dropped.
 */
class Sampler
{
  public:
    static constexpr int kMaxDepth = 64;
    static constexpr std::size_t kCapacity = 1 << 16;
    static constexpr int kPeriodMicros = 1000;

    Sampler();
    ~Sampler();

    Sampler(const Sampler &) = delete;
    Sampler &operator=(const Sampler &) = delete;

    void start();
    void stop();

    std::size_t samples() const { return count_; }

    /**
     * Count samples per layer. Frames are walked innermost first; the
     * first one whose qualified name starts with a rule's prefix
     * decides the layer (rules are tried in order). Unresolved or
     * unmatched stacks count as "other".
     */
    std::map<std::string, std::uint64_t>
    attribute(const std::vector<LayerRule> &rules) const;

    /** Signal-handler entry: records the stack that was interrupted
     *  at @p interruptedPc (null when the platform does not say). */
    void record(void *interruptedPc);

  private:
    std::vector<void *> frames_;
    std::vector<std::uint8_t> depth_;
    volatile std::size_t count_ = 0;
    bool running_ = false;
};

/**
 * Split @p total (e.g. the traced run's host ns per commit) across
 * layers in proportion to their sample counts. Every layer in
 * @p layers appears in the result (0 when it has no samples); the
 * values sum to @p total. With no samples at all, everything is
 * "other".
 */
std::map<std::string, double>
splitByShare(const std::map<std::string, std::uint64_t> &counts,
             const std::vector<std::string> &layers, double total);

} // namespace perfbench

#endif // PERFBENCH_SAMPLER_HH
