#include "common/metrics.h"

#include "common/log.h"

namespace cyclops
{

void
EpochSampler::configure(const StatGroup *stats, u32 intervalCycles)
{
    stats_ = stats;
    interval_ = intervalCycles;
    next_ = intervalCycles;
    droppedRows_ = 0;
    names_.clear();
    sampleCycles_.clear();
    data_.clear();
    if (enabled())
        names_ = stats_->scalarNames();
}

void
EpochSampler::record(Cycle at, bool force)
{
    if (rows() >= kMaxRows && !force) {
        ++droppedRows_;
        return;
    }
    sampleCycles_.push_back(at);
    // No reserve here: an exact-size reserve pins the capacity to the
    // current row and forces a full copy of the whole series on every
    // subsequent row — quadratic in the row count. push_back's
    // geometric growth keeps a 384-link series linear.
    stats_->sampleScalars(data_);
}

void
EpochSampler::finalize(Cycle now)
{
    if (!enabled())
        return;
    maybeSample(now);
    // The end-of-run row carries the run's final totals, so it must
    // survive the row cap (force): dropping it would make a capped
    // series end mid-run. finalize stays idempotent — once a row
    // exists at `now`, repeated calls add nothing.
    if (sampleCycles_.empty() || sampleCycles_.back() < now)
        record(now, /*force=*/true);
}

void
EpochSampler::writeCsv(std::FILE *out) const
{
    std::fputs("cycle", out);
    for (const std::string &name : names_)
        std::fprintf(out, ",%s", name.c_str());
    std::fputc('\n', out);
    for (u32 r = 0; r < rows(); ++r) {
        std::fprintf(out, "%llu",
                     static_cast<unsigned long long>(sampleCycles_[r]));
        for (u32 c = 0; c < names_.size(); ++c)
            std::fprintf(out, ",%llu",
                         static_cast<unsigned long long>(value(r, c)));
        std::fputc('\n', out);
    }
}

void
writeStatsJson(std::FILE *out, const StatGroup &stats, Cycle cycles,
               const EpochSampler *sampler)
{
    std::fprintf(out, "{\n  \"cycles\": %llu,\n  \"counters\": {",
                 static_cast<unsigned long long>(cycles));
    bool first = true;
    for (const auto &[name, value] : stats.counters()) {
        std::fprintf(out, "%s\n    \"%s\": %llu", first ? "" : ",",
                     name.c_str(),
                     static_cast<unsigned long long>(value));
        first = false;
    }
    std::fputs("\n  },\n  \"histograms\": {", out);
    first = true;
    for (const auto &[name, h] : stats.histograms()) {
        std::fprintf(out,
                     "%s\n    \"%s\": {\"n\": %llu, \"sum\": %llu, "
                     "\"max\": %llu, \"buckets\": [",
                     first ? "" : ",", name.c_str(),
                     static_cast<unsigned long long>(h->samples()),
                     static_cast<unsigned long long>(h->sum()),
                     static_cast<unsigned long long>(h->max()));
        for (unsigned b = 0; b < Histogram::kBuckets; ++b)
            std::fprintf(out, "%s%llu", b ? ", " : "",
                         static_cast<unsigned long long>(h->bucket(b)));
        std::fputs("]}", out);
        first = false;
    }
    std::fputs("\n  }", out);
    if (sampler && sampler->enabled()) {
        std::fputs(",\n  \"series\": ", out);
        writeSeriesJson(out, *sampler);
    }
    std::fputs("\n}\n", out);
}

void
writeSeriesJson(std::FILE *out, const EpochSampler &sampler)
{
    std::fprintf(out, "{\n    \"interval\": %u,\n    \"cycle\": [",
                 sampler.interval());
    for (u32 r = 0; r < sampler.rows(); ++r)
        std::fprintf(
            out, "%s%llu", r ? ", " : "",
            static_cast<unsigned long long>(sampler.sampleCycles()[r]));
    std::fputs("],\n    \"counters\": {", out);
    bool first = true;
    for (u32 c = 0; c < sampler.names().size(); ++c) {
        std::fprintf(out, "%s\n      \"%s\": [", first ? "" : ",",
                     sampler.names()[c].c_str());
        for (u32 r = 0; r < sampler.rows(); ++r)
            std::fprintf(
                out, "%s%llu", r ? ", " : "",
                static_cast<unsigned long long>(sampler.value(r, c)));
        std::fputs("]", out);
        first = false;
    }
    std::fprintf(out, "\n    },\n    \"droppedRows\": %llu\n  }",
                 static_cast<unsigned long long>(sampler.droppedRows()));
}

} // namespace cyclops
