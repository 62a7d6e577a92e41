#include "common/trace.h"

#include <algorithm>

#include "common/log.h"

namespace cyclops
{

const char *const kTraceCatNames[kNumTraceCats] = {
    "mem", "cache", "barrier", "kernel", "sched", "net"};

std::string
parseTraceCats(const std::string &spec, u8 *mask)
{
    if (spec.empty() || spec == "none") {
        *mask = 0;
        return "";
    }
    if (spec == "all") {
        *mask = kTraceAll;
        return "";
    }
    u8 bits = 0;
    size_t pos = 0;
    while (pos < spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string name = spec.substr(pos, comma - pos);
        const auto *const end = kTraceCatNames + kNumTraceCats;
        const auto *const it = std::find(kTraceCatNames, end, name);
        if (it == end)
            return strprintf("unknown trace category '%s' (valid: "
                             "mem,cache,barrier,kernel,sched,net,all,"
                             "none)", name.c_str());
        bits |= u8(1u << (it - kTraceCatNames));
        pos = comma + 1;
    }
    *mask = bits;
    return "";
}

void
Tracer::configure(u8 mask, u32 capacity)
{
    mask_ = mask;
    next_ = 0;
    filled_ = false;
    dropped_ = 0;
    ring_.clear();
    if (mask_ && capacity)
        ring_.resize(capacity);
}

std::vector<Tracer::Event>
Tracer::sorted() const
{
    std::vector<Event> out;
    out.reserve(size());
    if (filled_)
        out.insert(out.end(), ring_.begin() + next_, ring_.end());
    out.insert(out.end(), ring_.begin(), ring_.begin() + next_);
    std::stable_sort(out.begin(), out.end(),
                     [](const Event &a, const Event &b) {
                         if (a.start != b.start)
                             return a.start < b.start;
                         return a.tid < b.tid;
                     });
    return out;
}

void
Tracer::writeChromeEvents(std::FILE *out, u32 pid,
                          const char *processName, u32 numTracks,
                          bool leadingComma,
                          const std::vector<std::string> *trackNames) const
{
    std::fprintf(out,
                 "%s    {\"ph\": \"M\", \"pid\": %u, \"tid\": 0, \"name\": "
                 "\"process_name\", \"args\": {\"name\": \"%s\"}}",
                 leadingComma ? ",\n" : "", pid, processName);
    for (u32 t = 0; t < numTracks; ++t) {
        const std::string name =
            trackNames && t < trackNames->size() ? (*trackNames)[t]
                                                 : strprintf("tu%u", t);
        std::fprintf(out,
                     ",\n    {\"ph\": \"M\", \"pid\": %u, \"tid\": %u, "
                     "\"name\": \"thread_name\", \"args\": {\"name\": "
                     "\"%s\"}}",
                     pid, t, name.c_str());
    }
    for (const Event &ev : sorted()) {
        const char *cat = kTraceCatNames[ev.cat];
        if (ev.phase == 'X') {
            std::fprintf(out,
                         ",\n    {\"ph\": \"X\", \"pid\": %u, \"tid\": %u, "
                         "\"name\": \"%s\", \"cat\": \"%s\", \"ts\": %llu, "
                         "\"dur\": %llu, \"args\": {\"arg\": %llu}}",
                         pid, ev.tid, ev.name, cat,
                         static_cast<unsigned long long>(ev.start),
                         static_cast<unsigned long long>(ev.dur),
                         static_cast<unsigned long long>(ev.arg));
        } else if (ev.phase == 'C') {
            std::fprintf(out,
                         ",\n    {\"ph\": \"C\", \"pid\": %u, \"tid\": %u, "
                         "\"name\": \"%s\", \"cat\": \"%s\", \"ts\": %llu, "
                         "\"args\": {\"value\": %llu}}",
                         pid, ev.tid, ev.name, cat,
                         static_cast<unsigned long long>(ev.start),
                         static_cast<unsigned long long>(ev.arg));
        } else if (ev.phase == 's' || ev.phase == 'f') {
            // Flow events bind to the slice enclosing (pid, tid, ts);
            // 'f' uses the enclosing-slice binding point so the arrow
            // lands on the delivery slice's end.
            std::fprintf(out,
                         ",\n    {\"ph\": \"%c\", \"pid\": %u, "
                         "\"tid\": %u, \"name\": \"%s\", \"cat\": \"%s\", "
                         "\"ts\": %llu, \"id\": %llu%s}",
                         ev.phase, pid, ev.tid, ev.name, cat,
                         static_cast<unsigned long long>(ev.start),
                         static_cast<unsigned long long>(ev.arg),
                         ev.phase == 'f' ? ", \"bp\": \"e\"" : "");
        } else {
            std::fprintf(out,
                         ",\n    {\"ph\": \"i\", \"pid\": %u, \"tid\": %u, "
                         "\"name\": \"%s\", \"cat\": \"%s\", \"ts\": %llu, "
                         "\"s\": \"t\", \"args\": {\"arg\": %llu}}",
                         pid, ev.tid, ev.name, cat,
                         static_cast<unsigned long long>(ev.start),
                         static_cast<unsigned long long>(ev.arg));
        }
    }
}

void
Tracer::writeChromeJson(std::FILE *out, u32 numTracks) const
{
    // ts/dur are microseconds in the trace-event format; we map one
    // simulated cycle to one microsecond so Perfetto's time axis reads
    // directly in cycles.
    std::fputs("{\n  \"displayTimeUnit\": \"ns\",\n"
               "  \"traceEvents\": [\n",
               out);
    writeChromeEvents(out, 1, "cyclops", numTracks, false);
    std::fprintf(out,
                 "\n  ],\n  \"otherData\": {\"droppedEvents\": %llu}\n}\n",
                 static_cast<unsigned long long>(dropped_));
}

void
Tracer::writeChromeJson(const std::string &path, u32 numTracks) const
{
    std::FILE *f = openOutput(path, "trace output");
    writeChromeJson(f, numTracks);
    closeOutput(f, path);
}

} // namespace cyclops
