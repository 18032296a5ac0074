/**
 * @file
 * Shared helpers for the experiment harnesses: a strict flag parser
 * (--name=value), table printing, and the machine-readable report
 * writer behind every harness's --json flag. Every bench accepts:
 *
 *   --seconds=N   simulated measurement seconds per cell
 *   --warmup=N    simulated warm-up seconds (excluded from stats)
 *   --keys=N      key-space size
 *   --seed=N      root RNG seed
 *   --full        paper-scale parameters (slower)
 *   --json=PATH   write a milana-bench-v1 JSON report to PATH
 *   --help        list the binary's flags and defaults, then exit
 *
 * Defaults are sized so the whole bench suite finishes in minutes of
 * wall time while preserving the paper's shapes; EXPERIMENTS.md records
 * the settings used for the committed results.
 */

#ifndef BENCH_BENCH_UTIL_HH
#define BENCH_BENCH_UTIL_HH

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/json.hh"
#include "common/metrics.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace bench {

/**
 * Strict `--name=value` flag parser. Every get*() / has() call both
 * reads a flag and declares it; once a binary has read all of its
 * flags it calls finish(), which
 *
 *  - on `--help`, prints every declared flag with its default and
 *    exits 0 (before any work runs);
 *  - on an argument no call read (a typo, a removed flag) or a value
 *    that does not parse as the requested type, names it on stderr
 *    and exits 2.
 *
 * Numbers must parse completely: `--keys=2M` is an error, not 2.
 */
class Args
{
  public:
    Args(int argc, char **argv)
        : prog_(argc > 0 ? argv[0] : "bench")
    {
        for (int i = 1; i < argc; ++i)
            args_.emplace_back(argv[i]);
        used_.assign(args_.size(), false);
    }

    double
    getDouble(const std::string &name, double def)
    {
        declare(name, "F", number(def));
        const std::optional<std::string> text = find(name);
        if (!text)
            return def;
        char *end = nullptr;
        const double v = std::strtod(text->c_str(), &end);
        if (text->empty() || *end != '\0')
            return invalid(name, *text, "a number", def);
        return v;
    }

    std::int64_t
    getInt(const std::string &name, std::int64_t def)
    {
        declare(name, "N", std::to_string(def));
        const std::optional<std::string> text = find(name);
        if (!text)
            return def;
        char *end = nullptr;
        errno = 0;
        const long long v = std::strtoll(text->c_str(), &end, 10);
        if (text->empty() || *end != '\0' || errno == ERANGE)
            return invalid(name, *text, "an integer", def);
        return v;
    }

    /** Also accepts the two-token form "--name value". */
    std::string
    getString(const std::string &name, const std::string &def)
    {
        declare(name, "STR", def);
        return find(name).value_or(def);
    }

    /** A bare switch, "--name". */
    bool
    has(const std::string &name)
    {
        declare(name, "", "");
        const std::string flag = "--" + name;
        bool found = false;
        for (std::size_t i = 0; i < args_.size(); ++i) {
            if (args_[i] == flag) {
                used_[i] = true;
                found = true;
            }
        }
        return found;
    }

    /**
     * A duration flag with unit suffix: "100ms", "250us", "2s",
     * "500ns". A bare number means milliseconds (the natural unit for
     * sampling intervals).
     */
    common::Duration
    getDuration(const std::string &name, common::Duration def)
    {
        declare(name, "D",
                number(common::toMillis(def)) + "ms");
        const std::optional<std::string> text = find(name);
        if (!text)
            return def;
        char *end = nullptr;
        const double n = std::strtod(text->c_str(), &end);
        const std::string unit(end);
        double scale = 0;
        if (unit == "ns")
            scale = static_cast<double>(common::kNanosecond);
        else if (unit == "us")
            scale = static_cast<double>(common::kMicrosecond);
        else if (unit == "ms" || unit.empty())
            scale = static_cast<double>(common::kMillisecond);
        else if (unit == "s")
            scale = static_cast<double>(common::kSecond);
        if (end == text->c_str() || scale == 0)
            return invalid(name, *text, "a duration (ns/us/ms/s)", def);
        return static_cast<common::Duration>(n * scale);
    }

    /** Every problem found so far: bad values, then arguments that no
     *  get*() / has() call has read. */
    std::vector<std::string>
    errors() const
    {
        std::vector<std::string> out = errors_;
        for (std::size_t i = 0; i < args_.size(); ++i) {
            if (!used_[i] && args_[i] != "--help")
                out.push_back("unknown argument '" + args_[i] + "'");
        }
        return out;
    }

    /** The --help text: a usage line, then every flag declared so
     *  far with its default. */
    std::string
    usage() const
    {
        std::string text = "usage: " + prog_ + " [flags]\n";
        for (const auto &[flag, def] : declared_) {
            text += "  " + flag;
            if (!def.empty())
                text += std::string(flag.size() < 28 ? 28 - flag.size()
                                                     : 1,
                                    ' ') +
                        def;
            text += "\n";
        }
        return text;
    }

    /** Call after the last get*() / has(): handles --help and exits
     *  2 on any error (see the class comment). */
    void
    finish() const
    {
        for (const std::string &a : args_) {
            if (a == "--help") {
                std::fputs(usage().c_str(), stdout);
                std::exit(0);
            }
        }
        const std::vector<std::string> errs = errors();
        if (errs.empty())
            return;
        for (const std::string &e : errs)
            std::fprintf(stderr, "%s: %s\n", prog_.c_str(), e.c_str());
        std::fprintf(stderr, "%s: run with --help for the flag list\n",
                     prog_.c_str());
        std::exit(2);
    }

  private:
    void
    declare(const std::string &name, const char *meta,
            const std::string &def)
    {
        std::string flag = "--" + name;
        if (*meta != '\0')
            flag += std::string("=") + meta;
        for (const auto &d : declared_)
            if (d.first == flag)
                return;
        declared_.emplace_back(flag,
                               def.empty() ? "" : "(default " + def + ")");
    }

    /** The value of the first `--name=value` / `--name value`
     *  occurrence (every occurrence is marked read). */
    std::optional<std::string>
    find(const std::string &name)
    {
        const std::string prefix = "--" + name + "=";
        const std::string flag = "--" + name;
        std::optional<std::string> value;
        for (std::size_t i = 0; i < args_.size(); ++i) {
            std::string text;
            if (args_[i].rfind(prefix, 0) == 0) {
                used_[i] = true;
                text = args_[i].substr(prefix.size());
            } else if (args_[i] == flag && i + 1 < args_.size()) {
                used_[i] = used_[i + 1] = true;
                text = args_[++i];
            } else {
                continue;
            }
            if (!value)
                value = std::move(text);
        }
        return value;
    }

    static std::string
    number(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%g", v);
        return buf;
    }

    template <typename T>
    T
    invalid(const std::string &name, const std::string &text,
            const char *what, T def)
    {
        errors_.push_back("--" + name + "=" + text + " is not " + what);
        return def;
    }

    std::string prog_;
    std::vector<std::string> args_;
    std::vector<bool> used_;
    std::vector<std::pair<std::string, std::string>> declared_;
    std::vector<std::string> errors_;
};

/**
 * Write a TimeSeriesLog as the `milana-metrics-v1` JSON document at
 * @p path plus a sibling CSV of the same series (PATH with
 * a .json suffix swapped for .csv, else PATH + ".csv"). Exits on I/O
 * error, like Report::write.
 */
inline void
writeMetricsOutputs(const common::TimeSeriesLog &log,
                    const std::string &path)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
        std::exit(1);
    }
    log.writeJson(os);
    std::string csv_path = path;
    if (csv_path.size() >= 5 &&
        csv_path.compare(csv_path.size() - 5, 5, ".json") == 0)
        csv_path.resize(csv_path.size() - 5);
    csv_path += ".csv";
    std::ofstream cs(csv_path);
    if (!cs) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     csv_path.c_str());
        std::exit(1);
    }
    log.writeCsv(cs);
    std::printf("wrote %s and %s (%zu series)\n", path.c_str(),
                csv_path.c_str(), log.seriesCount());
}

inline void
printHeader(const char *title)
{
    std::printf("\n================================================================\n");
    std::printf("%s\n", title);
    std::printf("================================================================\n");
}

/**
 * An ordered list of key/value pairs serialized as one JSON object —
 * the building block of a Report's "params" object and "rows" entries.
 * Insertion order is preserved so rows read like the printed tables.
 */
class KvList
{
  public:
    using Value = std::variant<bool, std::int64_t, double, std::string>;

    template <typename T>
    KvList &
    set(const std::string &key, T v)
    {
        if constexpr (std::is_same_v<T, bool>)
            items_.emplace_back(key, Value(v));
        else if constexpr (std::is_integral_v<T>)
            items_.emplace_back(key,
                                Value(static_cast<std::int64_t>(v)));
        else if constexpr (std::is_floating_point_v<T>)
            items_.emplace_back(key, Value(static_cast<double>(v)));
        else
            items_.emplace_back(key, Value(std::string(v)));
        return *this;
    }

    void
    writeTo(common::JsonWriter &w) const
    {
        w.beginObject();
        for (const auto &[key, value] : items_) {
            w.key(key);
            if (std::holds_alternative<bool>(value))
                w.value(std::get<bool>(value));
            else if (std::holds_alternative<std::int64_t>(value))
                w.value(std::get<std::int64_t>(value));
            else if (std::holds_alternative<double>(value))
                w.value(std::get<double>(value));
            else
                w.value(std::get<std::string>(value));
        }
        w.endObject();
    }

  private:
    std::vector<std::pair<std::string, Value>> items_;
};

/**
 * Machine-readable run report, schema "milana-bench-v1":
 *
 *   {
 *     "schema": "milana-bench-v1",
 *     "bench":  "<harness name>",
 *     "params": { flag: value, ... },
 *     "rows":   [ { cell coordinates and measurements }, ... ],
 *     "stats":  { "<section>": {"counters": ..., "histograms": ...} }
 *   }
 *
 * Each printed table cell becomes one row object; "stats" carries the
 * optional full StatSet dumps (e.g. the traced cell of fig6). Finish
 * with write(path), path being the --json flag's value: a no-op when
 * it is empty.
 */
class Report
{
  public:
    explicit Report(std::string bench) : bench_(std::move(bench)) {}

    KvList &params() { return params_; }

    /** Append a row. The reference is valid until the next addRow(). */
    KvList &
    addRow()
    {
        rows_.emplace_back();
        return rows_.back();
    }

    /** Attach a full StatSet dump under stats.<section>, with every
     *  metric name prefixed by @p prefix (e.g. "client."). */
    void
    addStats(const std::string &section, const common::StatSet &stats,
             const std::string &prefix = "")
    {
        stats_.emplace_back(section, std::make_pair(prefix, stats));
    }

    void
    writeTo(std::ostream &os) const
    {
        common::JsonWriter w(os);
        w.beginObject();
        w.key("schema").value("milana-bench-v1");
        w.key("bench").value(bench_);
        w.key("params");
        params_.writeTo(w);
        w.key("rows").beginArray();
        for (const auto &row : rows_)
            row.writeTo(w);
        w.endArray();
        if (!stats_.empty()) {
            w.key("stats").beginObject();
            for (const auto &[section, entry] : stats_) {
                w.key(section);
                entry.second.toJson(w, entry.first);
            }
            w.endObject();
        }
        w.endObject();
        os << "\n";
    }

    /** Write the report to @p path unless it is empty; exits on I/O
     *  error so scripted pipelines fail loudly rather than read a
     *  stale file. */
    void
    write(const std::string &path) const
    {
        if (path.empty())
            return;
        std::ofstream os(path);
        if (!os) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         path.c_str());
            std::exit(1);
        }
        writeTo(os);
        std::printf("\nwrote %s\n", path.c_str());
    }

  private:
    std::string bench_;
    KvList params_;
    std::vector<KvList> rows_;
    std::vector<std::pair<std::string, std::pair<std::string, common::StatSet>>>
        stats_;
};

} // namespace bench

#endif // BENCH_BENCH_UTIL_HH
