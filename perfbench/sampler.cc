#include "sampler.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <cxxabi.h>
#include <elf.h>
#include <execinfo.h>
#include <fstream>
#include <iterator>
#include <link.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unordered_map>

namespace perfbench {

namespace {

Sampler *g_active = nullptr;

void
onProf(int, siginfo_t *, void *uctx)
{
    const int saved = errno;
    void *pc = nullptr;
#if defined(__x86_64__)
    pc = reinterpret_cast<void *>(
        static_cast<ucontext_t *>(uctx)->uc_mcontext.gregs[REG_RIP]);
#else
    (void)uctx;
#endif
    if (g_active != nullptr)
        g_active->record(pc);
    errno = saved;
}

struct Symbol
{
    std::uintptr_t addr = 0;
    std::uintptr_t size = 0;
    std::uint32_t nameOffset = 0;
};

/** The executable's function symbols, sorted by address. */
class SymbolTable
{
  public:
    SymbolTable()
    {
        std::ifstream in("/proc/self/exe", std::ios::binary);
        image_.assign(std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>());
        load();
        dl_iterate_phdr(
            [](dl_phdr_info *info, std::size_t, void *out) {
                // The first object reported is the main program.
                *static_cast<std::uintptr_t *>(out) = info->dlpi_addr;
                return 1;
            },
            &bias_);
    }

    /** Symbol containing @p pc, or null. */
    const Symbol *
    find(std::uintptr_t pc) const
    {
        pc -= bias_;
        auto it = std::upper_bound(
            symbols_.begin(), symbols_.end(), pc,
            [](std::uintptr_t v, const Symbol &s) { return v < s.addr; });
        if (it == symbols_.begin())
            return nullptr;
        --it;
        if (it->size != 0 && pc >= it->addr + it->size)
            return nullptr;
        return &*it;
    }

    std::size_t index(const Symbol *s) const { return s - symbols_.data(); }

    std::string
    demangled(const Symbol &s) const
    {
        const char *raw = strtab_ + s.nameOffset;
        int status = 0;
        char *out = abi::__cxa_demangle(raw, nullptr, nullptr, &status);
        std::string name = status == 0 && out != nullptr ? out : raw;
        std::free(out);
        return name;
    }

  private:
    void
    load()
    {
        if (image_.size() < sizeof(Elf64_Ehdr))
            return;
        Elf64_Ehdr eh;
        std::memcpy(&eh, image_.data(), sizeof eh);
        if (std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 ||
            eh.e_ident[EI_CLASS] != ELFCLASS64 ||
            eh.e_shentsize != sizeof(Elf64_Shdr) ||
            eh.e_shoff + std::uint64_t(eh.e_shnum) * sizeof(Elf64_Shdr) >
                image_.size())
            return;
        std::vector<Elf64_Shdr> sections(eh.e_shnum);
        std::memcpy(sections.data(), image_.data() + eh.e_shoff,
                    sections.size() * sizeof(Elf64_Shdr));
        for (const Elf64_Shdr &sh : sections) {
            if (sh.sh_type != SHT_SYMTAB || sh.sh_link >= sections.size())
                continue;
            const Elf64_Shdr &strs = sections[sh.sh_link];
            if (sh.sh_offset + sh.sh_size > image_.size() ||
                strs.sh_offset + strs.sh_size > image_.size() ||
                strs.sh_size == 0)
                return;
            strtab_ = image_.data() + strs.sh_offset;
            const std::size_t n = sh.sh_size / sizeof(Elf64_Sym);
            for (std::size_t i = 0; i < n; ++i) {
                Elf64_Sym sym;
                std::memcpy(&sym,
                            image_.data() + sh.sh_offset +
                                i * sizeof(Elf64_Sym),
                            sizeof sym);
                const int type = ELF64_ST_TYPE(sym.st_info);
                if ((type != STT_FUNC && type != STT_GNU_IFUNC) ||
                    sym.st_value == 0 || sym.st_name >= strs.sh_size)
                    continue;
                symbols_.push_back({sym.st_value, sym.st_size,
                                    sym.st_name});
            }
            std::sort(symbols_.begin(), symbols_.end(),
                      [](const Symbol &a, const Symbol &b) {
                          return a.addr < b.addr;
                      });
            return;
        }
    }

    std::vector<char> image_;
    const char *strtab_ = nullptr;
    std::vector<Symbol> symbols_;
    std::uintptr_t bias_ = 0;
};

} // namespace

const std::vector<LayerRule> &
repoLayerRules()
{
    static const std::vector<LayerRule> rules = {
        {"common::TraceLog::", "trace"},
        {"common::Tracer::", "trace"},
        {"common::ScopedSpan::", "trace"},
        {"common::TraceContextScope::", "trace"},
        {"common::InvariantMonitor::", "trace"},
        {"common::mergeTraceLogs", "trace"},
        {"common::MetricsRegistry::", "trace"},
        {"common::TimeSeriesLog::", "trace"},
        {"perfbench::", "trace"},
        {"sim::", "sim"},
        {"net::", "net"},
        {"clocksync::", "clocksync"},
        {"flash::", "flash"},
        {"ftl::", "ftl"},
        {"semel::", "semel"},
        {"milana::", "milana"},
        {"workload::", "workload"},
        {"common::", "common"},
    };
    return rules;
}

const std::vector<std::string> &
repoLayers()
{
    static const std::vector<std::string> layers = {
        "sim",    "net",      "clocksync", "flash", "ftl",   "semel",
        "milana", "workload", "common",    "trace", "other",
    };
    return layers;
}

std::string
qualifiedName(const std::string &demangled)
{
    std::string s = demangled;
    static const std::string anon = "(anonymous namespace)";
    for (std::size_t at = s.find(anon); at != std::string::npos;
         at = s.find(anon, at))
        s.replace(at, anon.size(), "anon");

    int depth = 0;
    std::size_t tokenStart = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (depth == 0 && c == '(')
            return s.substr(tokenStart, i - tokenStart);
        if (c == '<' || c == '(' || c == '[' || c == '{')
            ++depth;
        else if ((c == '>' || c == ')' || c == ']' || c == '}') &&
                 depth > 0)
            --depth;
        else if (depth == 0 && c == ' ')
            tokenStart = i + 1;
    }
    return s.substr(tokenStart);
}

Sampler::Sampler() : frames_(kCapacity * kMaxDepth), depth_(kCapacity) {}

Sampler::~Sampler()
{
    stop();
}

void
Sampler::start()
{
    if (running_)
        return;
    // The first backtrace() loads libgcc's unwinder; do it here, not
    // inside the signal handler.
    void *warm[4];
    backtrace(warm, 4);

    g_active = this;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);

    itimerval tv;
    tv.it_interval.tv_sec = kPeriodMicros / 1'000'000;
    tv.it_interval.tv_usec = kPeriodMicros % 1'000'000;
    tv.it_value = tv.it_interval;
    setitimer(ITIMER_PROF, &tv, nullptr);
    running_ = true;
}

void
Sampler::stop()
{
    if (!running_)
        return;
    itimerval off;
    std::memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, nullptr);
    signal(SIGPROF, SIG_IGN);
    g_active = nullptr;
    running_ = false;
}

void
Sampler::record(void *interruptedPc)
{
    if (count_ >= kCapacity)
        return;
    void *stack[kMaxDepth + 8];
    const int n = backtrace(stack, kMaxDepth + 8);
    void **out = &frames_[count_ * kMaxDepth];
    int d = 0;
    // Frame 0 is the interrupted instruction itself; the unwound stack
    // continues from the matching entry past the signal trampoline.
    int from = n;
    if (interruptedPc != nullptr) {
        out[d++] = interruptedPc;
        for (int i = 0; i < n; ++i) {
            if (stack[i] == interruptedPc) {
                from = i + 1;
                break;
            }
        }
    }
    for (int i = from; i < n && d < kMaxDepth; ++i)
        out[d++] = stack[i];
    depth_[count_] = static_cast<std::uint8_t>(d);
    count_ = count_ + 1;
}

std::map<std::string, std::uint64_t>
Sampler::attribute(const std::vector<LayerRule> &rules) const
{
    static const SymbolTable table;
    // Symbol index -> rule index (-1: no rule matches this function).
    std::unordered_map<std::size_t, int> ruleOf;
    auto classify = [&](const Symbol &sym) {
        const std::size_t key = table.index(&sym);
        if (auto it = ruleOf.find(key); it != ruleOf.end())
            return it->second;
        const std::string name = qualifiedName(table.demangled(sym));
        int match = -1;
        for (std::size_t r = 0; r < rules.size(); ++r) {
            if (name.compare(0, rules[r].prefix.size(), rules[r].prefix) ==
                0) {
                match = static_cast<int>(r);
                break;
            }
        }
        ruleOf.emplace(key, match);
        return match;
    };

    std::map<std::string, std::uint64_t> counts;
    for (std::size_t s = 0; s < count_; ++s) {
        const void *const *stack = &frames_[s * kMaxDepth];
        const char *layer = "other";
        for (int f = 0; f < depth_[s]; ++f) {
            // Frames past the first are return addresses: look up the
            // call instruction, which precedes them.
            const auto pc = reinterpret_cast<std::uintptr_t>(stack[f]) -
                            (f == 0 ? 0 : 1);
            const Symbol *sym = table.find(pc);
            if (sym == nullptr)
                continue;
            const int rule = classify(*sym);
            if (rule >= 0) {
                layer = rules[rule].layer.c_str();
                break;
            }
        }
        ++counts[layer];
    }
    return counts;
}

std::map<std::string, double>
splitByShare(const std::map<std::string, std::uint64_t> &counts,
             const std::vector<std::string> &layers, double total)
{
    std::map<std::string, double> split;
    for (const std::string &layer : layers)
        split[layer] = 0.0;
    std::uint64_t samples = 0;
    for (const auto &[layer, n] : counts)
        samples += n;
    if (samples == 0) {
        split["other"] = total;
        return split;
    }
    // Layers outside @p layers are folded into "other" so the split
    // still sums to the total.
    for (const auto &[layer, n] : counts) {
        const double share = total * static_cast<double>(n) /
                             static_cast<double>(samples);
        split[split.count(layer) != 0 ? layer : "other"] += share;
    }
    return split;
}

} // namespace perfbench
