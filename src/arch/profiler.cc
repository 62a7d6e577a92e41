#include "arch/profiler.h"

#include <algorithm>
#include <cstdio>

#include "arch/memsys.h"
#include "common/log.h"
#include "isa/program.h"

namespace cyclops::arch
{

namespace
{

const char *const kIgClassNames[MemSystem::kNumIgClasses] = {
    "Own", "All", "Sixteen", "Eight", "Four", "Pair", "One", "Scratch"};

constexpr const char *kUnmappedName = "<unmapped>";
constexpr const char *kUnknownName = "<unknown>";

} // namespace

void
Profiler::configure(u32 interval, u32 numThreads)
{
    interval_ = interval;
    bins_.clear();
    bins_.resize(numThreads);
    unmapped_.assign(numThreads, 0);
}

void
Profiler::setTextRange(PhysAddr base, u32 bytes)
{
    textBase_ = base;
    textWords_ = bytes / 4;
}

void
Profiler::record(ThreadId tid, bool mapped, PhysAddr pc, u64 weight)
{
    if (mapped && textWords_ > 0 && pc >= textBase_ &&
        pc < textBase_ + textWords_ * 4) {
        auto &bins = bins_[tid];
        if (bins.empty())
            bins.assign(textWords_, 0);
        bins[(pc - textBase_) / 4] += weight;
    } else {
        unmapped_[tid] += weight;
    }
}

u64
Profiler::totalSamples() const
{
    u64 total = 0;
    for (const auto &bins : bins_)
        for (u64 v : bins)
            total += v;
    for (u64 v : unmapped_)
        total += v;
    return total;
}

std::vector<std::pair<PhysAddr, std::string>>
Profiler::textSymbols(const isa::Program &prog) const
{
    std::vector<std::pair<PhysAddr, std::string>> out;
    const PhysAddr end = textBase_ + textWords_ * 4;
    for (const auto &[name, addr] : prog.symbols)
        if (addr >= textBase_ && addr < end)
            out.emplace_back(addr, name);
    // prog.symbols is an ordered map keyed by name; sort by address,
    // name-ascending within an address, so symbolization and reports
    // are deterministic.
    std::sort(out.begin(), out.end());
    return out;
}

namespace
{

/** Name of the symbol covering @p pc in the sorted symbol list. */
const char *
symbolize(const std::vector<std::pair<PhysAddr, std::string>> &syms,
          PhysAddr pc)
{
    auto it = std::upper_bound(
        syms.begin(), syms.end(), pc,
        [](PhysAddr p, const auto &sym) { return p < sym.first; });
    if (it == syms.begin())
        return kUnknownName;
    return std::prev(it)->second.c_str();
}

} // namespace

void
Profiler::writeOutputs(const std::string &base, const isa::Program &prog,
                       const MemSystem &memsys, const ChipConfig &cfg,
                       Cycle now) const
{
    writeJson(base, prog, memsys, cfg, now);
    writeFolded(base + ".folded", prog);
    writeHeatmapCsv(base + ".heatmap.csv", memsys, cfg);
}

void
Profiler::writeJson(const std::string &path, const isa::Program &prog,
                    const MemSystem &memsys, const ChipConfig &cfg,
                    Cycle now) const
{
    const auto syms = textSymbols(prog);

    // Aggregate the per-TU bins across threads, per PC and per symbol.
    std::vector<u64> perPc(textWords_, 0);
    for (const auto &bins : bins_)
        for (size_t i = 0; i < bins.size(); ++i)
            perPc[i] += bins[i];
    u64 unmapped = 0;
    for (u64 v : unmapped_)
        unmapped += v;

    struct SymCount
    {
        const char *name;
        PhysAddr addr;
        u64 samples;
    };
    std::vector<SymCount> bySym;
    {
        size_t symIdx = 0; // current symbol while walking PCs ascending
        for (u32 w = 0; w < textWords_; ++w) {
            if (perPc[w] == 0)
                continue;
            const PhysAddr pc = textBase_ + w * 4;
            while (symIdx < syms.size() && syms[symIdx].first <= pc)
                ++symIdx;
            const char *name = symIdx == 0 ? kUnknownName
                                           : syms[symIdx - 1].second.c_str();
            const PhysAddr addr =
                symIdx == 0 ? textBase_ : syms[symIdx - 1].first;
            if (!bySym.empty() && bySym.back().addr == addr &&
                bySym.back().name == name) {
                bySym.back().samples += perPc[w];
            } else {
                bySym.push_back({name, addr, perPc[w]});
            }
        }
    }
    if (unmapped > 0)
        bySym.push_back({kUnmappedName, 0, unmapped});
    std::stable_sort(bySym.begin(), bySym.end(),
                     [](const SymCount &a, const SymCount &b) {
                         return a.samples > b.samples;
                     });

    std::vector<PcCount> hot;
    for (u32 w = 0; w < textWords_; ++w)
        if (perPc[w] > 0)
            hot.push_back({textBase_ + w * 4, perPc[w]});
    std::stable_sort(hot.begin(), hot.end(),
                     [](const PcCount &a, const PcCount &b) {
                         return a.samples > b.samples;
                     });
    if (hot.size() > 32)
        hot.resize(32);

    const u64 total = totalSamples();
    std::FILE *f = openOutput(path, "profile output");
    std::fprintf(f, "{\n  \"profInterval\": %u,\n", interval_);
    std::fprintf(f, "  \"cycles\": %llu,\n",
                 static_cast<unsigned long long>(now));
    std::fprintf(f, "  \"samples\": %llu,\n",
                 static_cast<unsigned long long>(total));
    std::fprintf(f, "  \"unmappedSamples\": %llu,\n",
                 static_cast<unsigned long long>(unmapped));

    std::fputs("  \"symbols\": [", f);
    for (size_t i = 0; i < bySym.size(); ++i) {
        const double pct =
            total > 0 ? 100.0 * double(bySym[i].samples) / double(total)
                      : 0.0;
        std::fprintf(f,
                     "%s\n    {\"symbol\": \"%s\", \"addr\": %u, "
                     "\"samples\": %llu, \"pct\": %.3f}",
                     i ? "," : "", bySym[i].name, bySym[i].addr,
                     static_cast<unsigned long long>(bySym[i].samples),
                     pct);
    }
    std::fputs("\n  ],\n", f);

    std::fputs("  \"hotPcs\": [", f);
    for (size_t i = 0; i < hot.size(); ++i) {
        std::fprintf(f,
                     "%s\n    {\"pc\": %u, \"symbol\": \"%s\", "
                     "\"samples\": %llu}",
                     i ? "," : "", hot[i].pc, symbolize(syms, hot[i].pc),
                     static_cast<unsigned long long>(hot[i].samples));
    }
    std::fputs("\n  ],\n", f);

    std::fputs("  \"threads\": [", f);
    bool first = true;
    for (ThreadId tid = 0; tid < ThreadId(bins_.size()); ++tid) {
        u64 n = unmapped_[tid];
        for (u64 v : bins_[tid])
            n += v;
        if (n == 0)
            continue;
        std::fprintf(f, "%s\n    {\"tid\": %u, \"samples\": %llu}",
                     first ? "" : ",", tid,
                     static_cast<unsigned long long>(n));
        first = false;
    }
    std::fputs("\n  ],\n", f);

    std::fputs("  \"igClasses\": [", f);
    for (u32 c = 0; c < MemSystem::kNumIgClasses; ++c) {
        std::fprintf(f,
                     "%s\n    {\"class\": \"%s\", \"accesses\": %llu, "
                     "\"hits\": %llu, \"misses\": %llu}",
                     c ? "," : "", kIgClassNames[c],
                     static_cast<unsigned long long>(memsys.igAccesses()[c]),
                     static_cast<unsigned long long>(memsys.igHits()[c]),
                     static_cast<unsigned long long>(memsys.igMisses()[c]));
    }
    std::fputs("\n  ],\n", f);

    std::fputs("  \"banks\": [", f);
    for (BankId b = 0; b < cfg.numBanks; ++b) {
        const MemBank &bank = memsys.bank(b);
        std::fprintf(f,
                     "%s\n    {\"bank\": %u, \"accesses\": %llu, "
                     "\"busyCycles\": %llu, \"queueCycles\": %llu}",
                     b ? "," : "", b,
                     static_cast<unsigned long long>(bank.accesses()),
                     static_cast<unsigned long long>(bank.busyCycles()),
                     static_cast<unsigned long long>(bank.queueCycles()));
    }
    std::fputs("\n  ]\n}\n", f);
    closeOutput(f, path);
}

void
Profiler::writeFolded(const std::string &path,
                      const isa::Program &prog) const
{
    const auto syms = textSymbols(prog);
    std::FILE *f = openOutput(path, "profile output");
    for (ThreadId tid = 0; tid < ThreadId(bins_.size()); ++tid) {
        // Aggregate this TU's bins per symbol; bins ascend by PC, so
        // one pass with a running symbol index suffices.
        const auto &bins = bins_[tid];
        size_t symIdx = 0;
        const char *curName = nullptr;
        u64 curCount = 0;
        auto flush = [&] {
            if (curName && curCount > 0)
                std::fprintf(f, "tu%u;%s %llu\n", tid, curName,
                             static_cast<unsigned long long>(curCount));
            curCount = 0;
        };
        for (size_t w = 0; w < bins.size(); ++w) {
            if (bins[w] == 0)
                continue;
            const PhysAddr pc = textBase_ + u32(w) * 4;
            while (symIdx < syms.size() && syms[symIdx].first <= pc)
                ++symIdx;
            const char *name = symIdx == 0 ? kUnknownName
                                           : syms[symIdx - 1].second.c_str();
            if (name != curName) {
                flush();
                curName = name;
            }
            curCount += bins[w];
        }
        flush();
        if (unmapped_[tid] > 0)
            std::fprintf(f, "tu%u;%s %llu\n", tid, kUnmappedName,
                         static_cast<unsigned long long>(unmapped_[tid]));
    }
    closeOutput(f, path);
}

void
Profiler::writeHeatmapCsv(const std::string &path, const MemSystem &memsys,
                          const ChipConfig &cfg) const
{
    if (!memsys.heatmapEnabled())
        fatal("profile output requested but the heatmap is disabled");
    std::FILE *f = openOutput(path, "profile output");
    std::fputs("row,quad", f);
    for (BankId b = 0; b < cfg.numBanks; ++b)
        std::fprintf(f, ",bank%u", b);
    std::fputc('\n', f);

    const auto &access = memsys.heatAccess();
    const auto &conflict = memsys.heatConflict();
    for (u32 q = 0; q < cfg.numCaches(); ++q) {
        std::fprintf(f, "access,%u", q);
        for (BankId b = 0; b < cfg.numBanks; ++b)
            std::fprintf(f, ",%llu",
                         static_cast<unsigned long long>(
                             access[size_t(q) * cfg.numBanks + b]));
        std::fputc('\n', f);
    }
    for (u32 q = 0; q < cfg.numCaches(); ++q) {
        std::fprintf(f, "conflict,%u", q);
        for (BankId b = 0; b < cfg.numBanks; ++b)
            std::fprintf(f, ",%llu",
                         static_cast<unsigned long long>(
                             conflict[size_t(q) * cfg.numBanks + b]));
        std::fputc('\n', f);
    }
    // Per-bank totals from the banks themselves: every column of the
    // access matrix must sum to the matching entry of this row (the
    // heatmap is enabled for the whole run), which check_prof.py and
    // the unit tests assert.
    std::fputs("bankAccesses,-", f);
    for (BankId b = 0; b < cfg.numBanks; ++b)
        std::fprintf(
            f, ",%llu",
            static_cast<unsigned long long>(memsys.bank(b).accesses()));
    std::fputc('\n', f);
    closeOutput(f, path);
}

} // namespace cyclops::arch
