/**
 * @file
 * Self-test of the SIGPROF sampler and its layer attribution: a busy
 * loop in a known namespace must receive at least 90% of the samples,
 * the layer shares must sum to 100%, and a per-layer split of a total
 * must sum back to that total. Exits 0 on success, 1 on failure.
 */

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "sampler.hh"

namespace perfbench::selftest {

/** Burns CPU for @p seconds of wall time; nothing here is in a repo
 *  layer namespace. */
__attribute__((noinline)) std::uint64_t
spin(double seconds)
{
    const auto end = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(seconds);
    std::uint64_t x = 88172645463325252ull;
    while (std::chrono::steady_clock::now() < end) {
        for (int i = 0; i < 100000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
    }
    return x;
}

} // namespace perfbench::selftest

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok)
        ++failures;
}

} // namespace

int
main()
{
    using perfbench::LayerRule;

    check(perfbench::qualifiedName("sim::Task<void> "
                                   "workload::RetwisInstance::run(int)") ==
              "workload::RetwisInstance::run",
          "qualifiedName drops a template return type");
    check(perfbench::qualifiedName("std::_Rb_tree<milana::TxnId, int>::"
                                   "find(milana::TxnId const&)") ==
              "std::_Rb_tree<milana::TxnId, int>::find",
          "qualifiedName keeps the std:: owner of a container method");
    check(perfbench::qualifiedName(
              "(anonymous namespace)::helper(int) [clone .constprop.0]") ==
              "anon::helper",
          "qualifiedName names the anonymous namespace");

    std::vector<LayerRule> rules = {{"perfbench::selftest::", "selftest"}};
    for (const LayerRule &r : perfbench::repoLayerRules())
        rules.push_back(r);
    std::vector<std::string> layers = perfbench::repoLayers();
    layers.push_back("selftest");

    perfbench::Sampler sampler;
    sampler.start();
    const std::uint64_t sink = perfbench::selftest::spin(1.0);
    sampler.stop();
    std::printf("spin result %llu, %zu samples\n",
                static_cast<unsigned long long>(sink), sampler.samples());

    const auto counts = sampler.attribute(rules);
    std::uint64_t total = 0;
    for (const auto &[layer, n] : counts) {
        std::printf("  %-10s %llu\n", layer.c_str(),
                    static_cast<unsigned long long>(n));
        total += n;
    }
    check(sampler.samples() >= 50, "at least 50 samples in 1 s of CPU");
    check(total == sampler.samples(), "every sample is attributed once");
    const auto it = counts.find("selftest");
    const double share =
        it == counts.end() || total == 0
            ? 0.0
            : static_cast<double>(it->second) / static_cast<double>(total);
    std::printf("busy-loop share %.1f%%\n", 100.0 * share);
    check(share >= 0.90, "busy loop gets >= 90% of its samples");

    const double traced = 12345.678;
    const auto split = perfbench::splitByShare(counts, layers, traced);
    double sum = 0;
    double shareSum = 0;
    for (const auto &[layer, ns] : split) {
        sum += ns;
        shareSum += ns / traced;
    }
    check(std::abs(shareSum - 1.0) < 1e-9, "layer shares sum to 100%");
    check(std::abs(sum - traced) < 1e-6,
          "per-layer ns/commit sum to the traced total");
    check(split.size() == layers.size(), "every layer is reported");

    const auto empty = perfbench::splitByShare({}, layers, traced);
    check(empty.at("other") == traced, "no samples: all time is other");

    return failures == 0 ? 0 : 1;
}
