/**
 * @file
 * perfbench: measure one workload of the TransFusion stack and print
 * its metrics, ending with a one-line JSON result.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *   perfbench --write-expected --workload NAME
 *   perfbench --list-metrics | --list-workloads
 *
 * Exit status: 0 when a result was printed (its "correct" field says
 * whether the output checks passed), 2 on a usage error or a build
 * whose numbers would be meaningless, 1 when a run failed.
 */

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "env.hh"
#include "metrics.hh"
#include "workloads.hh"

namespace
{

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n"
                 "       perfbench --write-expected --workload NAME\n"
                 "       perfbench --list-metrics | --list-workloads\n"
                 "workloads:";
    for (const auto &w : perfbench::workloadNames())
        std::cerr << " " << w;
    std::cerr << "\n";
    return 2;
}

/** Strict non-negative integer parse. */
bool
parseCount(const std::string &s, unsigned long long &out)
{
    if (s.empty() || s.size() > 18
        || s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    out = std::stoull(s);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunConfig config;
    bool write_expected = false;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--list-metrics") {
            printDeclarations(std::cout);
            return 0;
        }
        if (flag == "--list-workloads") {
            for (const auto &w : workloadNames())
                std::cout << w << "\n";
            return 0;
        }
        if (flag == "--write-expected") {
            write_expected = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage("missing value for " + flag);
        const std::string value = argv[++i];
        unsigned long long n = 0;
        if (flag == "--workload") {
            config.workload = value;
        } else if (flag == "--seed" && parseCount(value, n)) {
            config.seed = n;
            have_seed = true;
        } else if (flag == "--seconds" && parseCount(value, n)
                   && n >= 1 && n <= 3600) {
            config.seconds = static_cast<double>(n);
            have_seconds = true;
        } else if (flag == "--trace" && (value == "0" || value == "1")) {
            config.trace = value == "1";
            have_trace = true;
        } else {
            return usage("bad flag or value: " + flag + " " + value);
        }
    }
    bool known = false;
    for (const auto &w : workloadNames())
        known = known || w == config.workload;
    if (!known)
        return usage("unknown workload '" + config.workload + "'");

    const EnvStamp env = EnvStamp::current(kThreads, config.seed);
    std::cout << env.line() << std::endl;
    if (const std::string why = env.refusal(); !why.empty()) {
        std::cerr << "perfbench: refusing to report numbers: " << why
                  << "\n";
        return 2;
    }
    try {
        if (write_expected)
            return writeExpectedDigest(config, std::cout) ? 0 : 1;
        if (!have_seed || !have_seconds || !have_trace)
            return usage("--seed, --seconds and --trace are required");
        const RunResult result = runWorkload(config, std::cout);
        printResult(result,
                    config.trace ? perLayerMetrics() : endToEndMetrics(),
                    std::cout);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << config.workload
                  << " failed: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
