/**
 * @file
 * Implementation of the shared bench plumbing.
 */

#include "bench_util.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "common/math_utils.hh"
#include "obs/report.hh"
#include "obs/trace.hh"

namespace transfusion::bench
{

namespace
{

void
printUsage(std::ostream &os, const char *prog)
{
    os << "usage: " << prog
       << " [--threads N] [--seed N] [--csv]"
          " [--trace FILE] [--report FILE]"
          " [--chips N] [--tp N] [--pp N] [--faults N]"
          " [--replicas N] [--policy NAME]"
          " [--slo-p99-ms X] [--budget-chips N]"
          " [--schedules N]\n"
       << "  --threads N  worker threads (default: 0 = all cores)\n"
       << "  --seed N     base RNG seed (default: 1)\n"
       << "  --csv        emit tables as CSV\n"
       << "  --trace FILE write a Chrome trace_event JSON at exit"
          " (open in chrome://tracing)\n"
       << "  --report FILE write the obs metrics report at exit"
          " (.csv extension selects CSV)\n"
       << "  --chips N    cluster size for multi-chip benches"
          " (default: 1)\n"
       << "  --tp N       tensor-parallel width (default: 1)\n"
       << "  --pp N       pipeline stages (default: 1)\n"
       << "  --faults N   generated fault events for fault benches"
          " (default: 1, 0 = fault-free)\n"
       << "  --replicas N replica count for fleet benches"
          " (default: 1)\n"
       << "  --policy NAME fleet load-balancing policy, one of: "
       << fleet::policyNames() << " (default: round-robin)\n"
       << "  --slo-p99-ms X p99 latency SLO for the capacity"
          " planner, in milliseconds (default: 2000)\n"
       << "  --budget-chips N chip budget for the capacity"
          " planner's search (default: 0 = unlimited)\n"
       << "  --schedules N seeded fault schedules for the chaos"
          " sweep (default: 32)\n";
}

/** Exit-time artifact destinations; set once by parseBenchArgs. */
std::string g_trace_path;  // NOLINT(cert-err58-cpp)
std::string g_report_path; // NOLINT(cert-err58-cpp)

void
writeObsArtifacts()
{
    if (!g_trace_path.empty()) {
        obs::TraceSession &session = obs::TraceSession::global();
        session.stop();
        std::ofstream out(g_trace_path);
        if (!out) {
            std::cerr << "bench: cannot open trace file '"
                      << g_trace_path << "'\n";
        } else {
            session.writeChromeTrace(out);
        }
    }
    if (!g_report_path.empty()) {
        const obs::RunReport report =
            obs::RunReport::capture(obs::Registry::global());
        std::ofstream out(g_report_path);
        if (!out) {
            std::cerr << "bench: cannot open report file '"
                      << g_report_path << "'\n";
        } else if (g_report_path.size() >= 4
                   && g_report_path.compare(
                          g_report_path.size() - 4, 4, ".csv")
                       == 0) {
            report.writeCsv(out);
        } else {
            report.writeTo(out);
        }
    }
}

/**
 * Value of `--flag N` or `--flag=N`; advances `i` past a detached
 * value.  Returns false when argv[i] is not `flag` at all.
 */
bool
flagValue(int argc, char **argv, int &i, const std::string &flag,
          std::string &value)
{
    const std::string arg = argv[i];
    if (arg == flag) {
        if (i + 1 >= argc) {
            std::cerr << argv[0] << ": " << flag
                      << " needs a value\n";
            std::exit(2);
        }
        value = argv[++i];
        return true;
    }
    if (arg.rfind(flag + "=", 0) == 0) {
        value = arg.substr(flag.size() + 1);
        return true;
    }
    return false;
}

/**
 * Strictly parse an integer count in [min_value, 2^20]: the whole
 * string must be digits and in range, else usage + exit(2).  errno
 * is checked explicitly because strtoll saturates on overflow —
 * relying on the saturated value tripping the range check would
 * silently accept overflowing input if the cap were ever raised.
 */
int
parseCount(const char *prog, const std::string &flag,
           const std::string &value, long long min_value = 1)
{
    char *end = nullptr;
    errno = 0;
    const long long parsed = std::strtoll(value.c_str(), &end, 10);
    if (value.empty() || end == nullptr || *end != '\0'
        || errno == ERANGE || parsed < min_value
        || parsed > 1 << 20) {
        std::cerr << prog << ": " << flag << " needs a "
                  << (min_value > 0 ? "positive" : "non-negative")
                  << " integer, got '" << value << "'\n";
        printUsage(std::cerr, prog);
        std::exit(2);
    }
    return static_cast<int>(parsed);
}

/**
 * Strictly parse a finite positive real: the whole string must be
 * a number, > 0 and finite, else usage + exit(2).  As unforgiving
 * as parseCount — an SLO of '2000x' or 'inf' is a typo, not a
 * bound.
 */
double
parsePositiveReal(const char *prog, const std::string &flag,
                  const std::string &value)
{
    char *end = nullptr;
    errno = 0;
    const double parsed = std::strtod(value.c_str(), &end);
    if (value.empty() || end == nullptr || *end != '\0'
        || errno == ERANGE || !std::isfinite(parsed)
        || parsed <= 0) {
        std::cerr << prog << ": " << flag
                  << " needs a finite positive number, got '"
                  << value << "'\n";
        printUsage(std::cerr, prog);
        std::exit(2);
    }
    return parsed;
}

} // namespace

BenchArgs
parseBenchArgs(int argc, char **argv)
{
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string value;
        if (arg == "--help" || arg == "-h") {
            printUsage(std::cout, argv[0]);
            std::exit(0);
        } else if (arg == "--csv") {
            args.csv = true;
        } else if (flagValue(argc, argv, i, "--threads", value)) {
            args.threads =
                parseCount(argv[0], "--threads", value, 0);
        } else if (flagValue(argc, argv, i, "--seed", value)) {
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flagValue(argc, argv, i, "--trace", value)) {
            args.trace_path = value;
        } else if (flagValue(argc, argv, i, "--report", value)) {
            args.report_path = value;
        } else if (flagValue(argc, argv, i, "--chips", value)) {
            args.chips = parseCount(argv[0], "--chips", value);
        } else if (flagValue(argc, argv, i, "--tp", value)) {
            args.tp = parseCount(argv[0], "--tp", value);
        } else if (flagValue(argc, argv, i, "--pp", value)) {
            args.pp = parseCount(argv[0], "--pp", value);
        } else if (flagValue(argc, argv, i, "--faults", value)) {
            args.faults = parseCount(argv[0], "--faults", value,
                                     /*min_value=*/0);
        } else if (flagValue(argc, argv, i, "--replicas", value)) {
            args.replicas =
                parseCount(argv[0], "--replicas", value);
        } else if (flagValue(argc, argv, i, "--policy", value)) {
            const std::optional<fleet::PolicyKind> parsed =
                fleet::parsePolicy(value);
            if (!parsed) {
                std::cerr << argv[0] << ": unknown policy '"
                          << value << "' (expected one of: "
                          << fleet::policyNames() << ")\n";
                printUsage(std::cerr, argv[0]);
                std::exit(2);
            }
            args.policy = *parsed;
        } else if (flagValue(argc, argv, i, "--slo-p99-ms",
                             value)) {
            args.slo_p99_ms =
                parsePositiveReal(argv[0], "--slo-p99-ms", value);
        } else if (flagValue(argc, argv, i, "--budget-chips",
                             value)) {
            args.budget_chips = parseCount(
                argv[0], "--budget-chips", value, /*min_value=*/0);
        } else if (flagValue(argc, argv, i, "--schedules",
                             value)) {
            args.schedules =
                parseCount(argv[0], "--schedules", value);
        } else {
            std::cerr << argv[0] << ": unknown argument '" << arg
                      << "'\n";
            printUsage(std::cerr, argv[0]);
            std::exit(2);
        }
    }
    if (!args.trace_path.empty() || !args.report_path.empty()) {
        g_trace_path = args.trace_path;
        g_report_path = args.report_path;
        // Force both singletons into existence *before* registering
        // the hook: function-local statics register their destructor
        // on first use, and exit handlers run in reverse order, so a
        // registry first touched mid-run would be torn down before a
        // hook registered here could read it.
        obs::Registry::global();
        obs::TraceSession::global();
        if (!g_trace_path.empty())
            obs::TraceSession::global().start();
        std::atexit(&writeObsArtifacts);
    }
    return args;
}

void
printTable(const Table &t, const BenchArgs &args, std::ostream &os)
{
    if (args.csv)
        t.printCsv(os);
    else
        t.print(os);
}

PointResults
evaluatePoint(const arch::ArchConfig &arch,
              const model::TransformerConfig &cfg, std::int64_t seq)
{
    return sim::evaluateAll(arch, cfg, seq,
                            sweepOptions().evaluator);
}

schedule::SweepOptions
sweepOptions()
{
    schedule::SweepOptions opts;
    opts.evaluator.mcts.iterations = 2048;
    return opts;
}

std::vector<schedule::StrategyKind>
figureStrategies()
{
    return schedule::allStrategies();
}

std::string
seqLabel(std::int64_t seq)
{
    return formatQuantity(seq);
}

void
printBanner(const std::string &figure,
            const std::string &description)
{
    std::cout << "=== TransFusion reproduction: " << figure
              << " ===\n"
              << description << "\n"
              << "(simulated substrate; compare shapes/ratios, not "
                 "absolute numbers)\n\n";
}

} // namespace transfusion::bench
