/**
 * @file
 * Host-time sampler for any program of this repository, loaded with
 * LD_PRELOAD (the build makes it libcyclops-sampler.so):
 *
 *   LD_PRELOAD=build/tools/libcyclops-sampler.so \
 *       .bench_build/perfbench/perfbench_workloads timed stream_triad 6
 *   python3 tools/host_profile.py \
 *       .bench_build/perfbench/perfbench_workloads host-samples.*.txt
 *
 * Every millisecond of the process's CPU time (ITIMER_PROF; the kernel
 * rounds the period up to its tick, 4 ms at 250 Hz) the SIGPROF handler
 * records the interrupted program counter. At exit the samples
 * go to host-samples.<pid>.txt in the working directory, one line per
 * sample: the object holding the PC ("-" for the executable) and the
 * PC minus that object's load base in hex, the address addr2line
 * takes. A process that ends without running its exit handlers
 * (_exit, a fatal signal) writes nothing.
 */

#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace
{

constexpr size_t kMaxSamples = size_t(1) << 20; ///< ~17 min at 1 kHz
uintptr_t samples[kMaxSamples];
volatile sig_atomic_t numSamples = 0;

void
onProf(int, siginfo_t *, void *context)
{
    const auto *uc = static_cast<const ucontext_t *>(context);
#if defined(__x86_64__)
    const uintptr_t pc = uintptr_t(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    const uintptr_t pc = uintptr_t(uc->uc_mcontext.pc);
#else
#error "host_sampler: unsupported architecture"
#endif
    const size_t n = size_t(numSamples);
    if (n < kMaxSamples) {
        samples[n] = pc;
        numSamples = sig_atomic_t(n + 1);
    }
}

/** One loaded object: its name, load base and mapped address ranges. */
struct Object
{
    std::string name;
    uintptr_t base;
    std::vector<std::pair<uintptr_t, uintptr_t>> ranges;
};

int
addObject(dl_phdr_info *info, size_t, void *data)
{
    auto &objects = *static_cast<std::vector<Object> *>(data);
    // The executable is the object with an empty name.
    Object obj{info->dlpi_name && *info->dlpi_name ? info->dlpi_name : "-",
               uintptr_t(info->dlpi_addr), {}};
    for (int i = 0; i < info->dlpi_phnum; ++i) {
        const ElfW(Phdr) &ph = info->dlpi_phdr[i];
        if (ph.p_type == PT_LOAD) {
            const uintptr_t lo = obj.base + ph.p_vaddr;
            obj.ranges.emplace_back(lo, lo + ph.p_memsz);
        }
    }
    objects.push_back(std::move(obj));
    return 0;
}

__attribute__((constructor)) void
startSampling()
{
    struct sigaction sa = {};
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    const itimerval every1ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every1ms, nullptr);
}

__attribute__((destructor)) void
writeSamples()
{
    const itimerval off = {};
    setitimer(ITIMER_PROF, &off, nullptr);
    std::vector<Object> objects;
    dl_iterate_phdr(addObject, &objects);

    char path[64];
    std::snprintf(path, sizeof(path), "host-samples.%ld.txt",
                  long(getpid()));
    FILE *out = std::fopen(path, "w");
    if (!out)
        return;
    for (size_t i = 0; i < size_t(numSamples); ++i) {
        const uintptr_t pc = samples[i];
        const Object *hit = nullptr;
        for (const Object &obj : objects)
            for (const auto &[lo, hi] : obj.ranges)
                if (pc >= lo && pc < hi)
                    hit = &obj;
        if (hit)
            std::fprintf(out, "%s %#lx\n", hit->name.c_str(),
                         static_cast<unsigned long>(pc - hit->base));
        else
            std::fprintf(out, "? %#lx\n", static_cast<unsigned long>(pc));
    }
    std::fclose(out);
}

} // namespace
