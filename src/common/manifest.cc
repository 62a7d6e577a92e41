#include "common/manifest.h"

#include <cstdio>
#include <cstring>
#include <ctime>
#include <thread>

#include <sys/resource.h>
#include <unistd.h>

#include "common/config.h"
#include "common/log.h"

namespace cyclops
{

u64
hostNowNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return u64(ts.tv_sec) * 1'000'000'000ull + u64(ts.tv_nsec);
}

u64
hostPeakRssKb()
{
    rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    // ru_maxrss is KiB on Linux, bytes on some BSDs; Linux is the
    // supported host.
    return u64(ru.ru_maxrss);
}

// --- Run manifest -----------------------------------------------------------

const char *
gitDescribe()
{
#ifdef CYCLOPS_GIT_DESCRIBE
    return CYCLOPS_GIT_DESCRIBE;
#else
    return "unknown";
#endif
}

namespace
{

/** Minimal JSON string escaping (quotes, backslashes, control chars). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += strprintf("\\u%04x", c);
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace

void
writeRunManifest(const std::string &path, const RunManifest &m)
{
    std::FILE *f = openOutput(path, "manifest output");

    char hostname[256] = "unknown";
    if (gethostname(hostname, sizeof(hostname)) != 0)
        std::strcpy(hostname, "unknown");
    hostname[sizeof(hostname) - 1] = '\0';

    const double cps =
        m.wallSeconds > 0 ? double(m.simCycles) / m.wallSeconds : 0.0;
    const double mips = m.wallSeconds > 0
                            ? double(m.instructions) / m.wallSeconds / 1e6
                            : 0.0;

    std::fprintf(f,
                 "{\n"
                 "  \"schema\": \"cyclops-manifest-v1\",\n"
                 "  \"tool\": \"%s\",\n"
                 "  \"workload\": \"%s\",\n"
                 "  \"seed\": %llu,\n"
                 "  \"git\": \"%s\",\n"
                 "  \"host\": {\"name\": \"%s\", \"cores\": %u},\n",
                 jsonEscape(m.tool).c_str(), jsonEscape(m.workload).c_str(),
                 static_cast<unsigned long long>(m.seed),
                 jsonEscape(gitDescribe()).c_str(), jsonEscape(hostname).c_str(),
                 unsigned(std::thread::hardware_concurrency()));
    if (m.config) {
        const ChipConfig &c = *m.config;
        std::fprintf(
            f,
            "  \"config\": {\"hash\": \"%016llx\", \"threads\": %u, "
            "\"threadsPerQuad\": %u, \"banks\": %u, "
            "\"clockHz\": %llu},\n",
            static_cast<unsigned long long>(c.hash()), c.numThreads,
            c.threadsPerQuad, c.numBanks,
            static_cast<unsigned long long>(c.clockHz));
    } else {
        std::fputs("  \"config\": null,\n", f);
    }
    std::fprintf(f,
                 "  \"run\": {\"simCycles\": %llu, \"instructions\": %llu, "
                 "\"wallSeconds\": %.6f, \"cyclesPerSec\": %.1f, "
                 "\"mips\": %.4f, \"exitReason\": \"%s\"},\n"
                 "  \"peakRssKb\": %llu\n"
                 "}\n",
                 static_cast<unsigned long long>(m.simCycles),
                 static_cast<unsigned long long>(m.instructions),
                 m.wallSeconds, cps, mips,
                 jsonEscape(m.exitReason).c_str(),
                 static_cast<unsigned long long>(hostPeakRssKb()));
    closeOutput(f, path);
}

} // namespace cyclops
