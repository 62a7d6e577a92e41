/**
 * @file
 * One option table for every command-line front-end.
 *
 * cyclops-run, the bench_* binaries, cyclops-faultcamp and
 * cyclops-fuzz each build an OptionTable from rows. A row is a flag,
 * its operand (none for a switch), one help line and a parser that
 * stores the value into the field the row was built for. The rows the
 * tools share (observability, fault map) are defined here once; each
 * tool adds only its own. The usage text is generated from the rows.
 *
 * Parsing never exits: it returns why the command line was refused,
 * naming the flag, and the tool prints that with the usage text and
 * exits 2 (OptionTable::fail).
 */

#ifndef CYCLOPS_COMMON_CLI_H
#define CYCLOPS_COMMON_CLI_H

#include <functional>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/types.h"

namespace cyclops::cli
{

/** One command-line option. */
struct Option
{
    const char *name;
    const char *operand; ///< shown in the usage text; nullptr = switch
    const char *help;
    /** Store @p value (nullptr for a switch); "" or why it was refused. */
    std::function<std::string(const char *value)> set;
};

/** A switch storing @p value into @p out. */
Option flag(const char *name, bool *out, const char *help,
            bool value = true);
/** A whole-string integer in u32 range. */
Option u32Value(const char *name, u32 *out, const char *help);
/** A whole-string nonnegative integer in u64 range. */
Option u64Value(const char *name, u64 *out, const char *help);
/** A repeatable u32 flag: each occurrence appends one value. */
Option u32List(const char *name, std::vector<u32> *out, const char *help);
/** A string (usually an output path). */
Option text(const char *name, std::string *out, const char *help,
            const char *operand = "P");
/** A host job count (see parseJobs). */
Option jobs(const char *name, u32 *out, const char *help);
/** --watchdog: the deadlock-watchdog window in cycles (0 = off). */
Option watchdog(u64 *cycles);
/** --manifest: the run manifest's path. */
Option manifest(std::string *path);

/**
 * A job count: a nonnegative integer, saturated to u32 and resolved
 * by SimPool::resolveJobs (0 and counts past the hardware thread
 * count both mean "all hardware threads"). "" or why it was refused.
 */
std::string parseJobs(const char *text, u32 *out);

class OptionTable
{
  public:
    /**
     * @p operands names the positional arguments in the usage line
     * ("" = none accepted); @p note is printed after the rows.
     */
    explicit OptionTable(std::string operands = "", std::string note = "");

    void add(Option row);
    /**
     * --trace-out, --trace-cats, --trace-capacity, --stats-json,
     * --stats-csv and --stats-interval. parse() then applies the
     * derived defaults: --trace-out alone records every category and
     * --prof-out alone samples every 512 cycles.
     */
    void addObs(ObsConfig &obs);
    /** --prof-out, --prof-interval and --manifest. */
    void addOutputs(ObsConfig &obs, std::string &manifest);
    /** --fabric-stats and --fabric-heatmap: only a multi-chip run
     *  writes them. */
    void addFabric(ObsConfig &obs);
    /** --disable-tu/quad/fpu/dcache/icache/bank, --cache-ways and
     *  --watchdog into @p fault. */
    void addFault(FaultConfig &fault);

    /**
     * Parse argv[1..argc). Arguments not starting with '-' go to
     * @p operands (refused when it is null). "" on success, or why
     * the command line was refused.
     */
    std::string parse(int argc, const char *const *argv,
                      std::vector<std::string> *operands = nullptr);

    /** The usage line and one line per row. */
    std::string usage(const char *argv0) const;

    /** Print "argv0: why" and the usage text, then exit 2. */
    [[noreturn]] void fail(const char *argv0, const std::string &why) const;

  private:
    std::string operands_;
    std::string note_;
    std::vector<Option> rows_;
    ObsConfig *obs_ = nullptr; ///< gets the derived defaults
};

} // namespace cyclops::cli

#endif // CYCLOPS_COMMON_CLI_H
