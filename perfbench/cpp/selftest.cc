/**
 * @file
 * Self-tests of the benchmark itself: span self-time arithmetic,
 * metric declarations, output checks, and a tiny-size smoke run of
 * every workload, untraced and traced.
 *
 *   perfbench_selftest        (exit 0 = all passed)
 */

#include <cmath>
#include <filesystem>
#include <iostream>
#include <set>
#include <sstream>
#include <string>

#include "expected.hh"
#include "metrics.hh"
#include "spans.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::cerr << "FAIL: " << what << "\n";
    }
}

void
expectNear(double got, double want, const std::string &what)
{
    std::ostringstream os;
    os << what << ": got " << got << ", want " << want;
    expect(std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want)),
           os.str());
}

double
total(const SelfTimes &t)
{
    double sum = t.uncovered_s;
    for (const auto &[name, s] : t.by_name)
        sum += s;
    return sum;
}

void
testNestedSpansOneThread()
{
    // A [0,10) holds B [1,4) (which holds C [2,3)) and D [5,7).
    const std::vector<Span> spans = {
        { "A", 0, 10, 0, 0 },
        { "B", 1, 4, 0, 1 },
        { "C", 2, 3, 0, 2 },
        { "D", 5, 7, 0, 1 },
    };
    const SelfTimes t = selfTimes(spans, 0, 0, 12);
    expectNear(t.by_name.at("A"), 5, "nested: A self = 10 - 3 - 2");
    expectNear(t.by_name.at("B"), 2, "nested: B self = 3 - 1");
    expectNear(t.by_name.at("C"), 1, "nested: C self");
    expectNear(t.by_name.at("D"), 2, "nested: D self");
    expectNear(t.uncovered_s, 2, "nested: [10,12) uncovered");
    expectNear(total(t), 12, "nested: self + uncovered = wall");
}

void
testPoolThreads()
{
    // The root waits in S while two pool threads work.
    const std::vector<Span> spans = {
        { "S", 0, 10, 0, 0 },
        { "E", 1, 5, 1, 0 },
        { "E", 6, 9, 1, 0 },
        { "F", 2, 8, 2, 0 },
    };
    const SelfTimes t = selfTimes(spans, 0, 0, 10);
    expectNear(t.by_name.at("S"), 2, "pool: root charged only alone");
    expectNear(t.by_name.at("E"), 2.5 + 2, "pool: E shares overlap");
    expectNear(t.by_name.at("F"), 3.5, "pool: F shares overlap");
    expectNear(total(t), 10, "pool: self + uncovered = wall");
}

void
testNestedPools()
{
    // Thread 2 runs inside C on thread 1, which runs inside P on the
    // root: while G is open both C and P wait.
    const std::vector<Span> spans = {
        { "P", 0, 10, 0, 0 },
        { "C", 1, 9, 1, 0 },
        { "G", 2, 8, 2, 0 },
    };
    const SelfTimes t = selfTimes(spans, 0, 0, 10);
    expectNear(t.by_name.at("P"), 2, "nested pools: P");
    expectNear(t.by_name.at("C"), 2, "nested pools: C");
    expectNear(t.by_name.at("G"), 6, "nested pools: G");
    // Clipping to a sub-interval keeps the sum equal to its length.
    const SelfTimes clipped = selfTimes(spans, 0, 1.5, 8.5);
    expectNear(total(clipped), 7, "nested pools: clipped sum");
}

void
testMetricDeclarations()
{
    std::set<std::string> names;
    for (const auto *defs : { &endToEndMetrics(), &perLayerMetrics() }) {
        for (const MetricDef &d : *defs) {
            expect(validMetricName(d.name), "bad metric name " + d.name);
            expect(names.insert(d.name).second,
                   "duplicate metric " + d.name);
            expect(d.better == "lower" || d.better == "higher",
                   d.name + ": better must be lower|higher");
            expect(!d.unit.empty() && d.unit.size() <= 16,
                   d.name + ": bad unit");
        }
    }
    expect(!validMetricName("bad name"), "space accepted in a name");
    expect(!validMetricName(".dot"), "leading dot accepted");
    expect(!validMetricName(std::string(65, 'a')), "65 chars accepted");
}

void
testDigestChecks(const std::string &dir)
{
    Digest a;
    a.add("x", 0.1);
    a.add("n", std::int64_t{ 3 });
    const std::string path = dir + "/selftest_expected.txt";
    expect(writeExpected(a, path), "cannot write " + path);
    CheckTally same;
    compareExpected(a, path, same);
    expect(same.attempted() == 2 && same.failed() == 0,
           "identical digest must pass every check");
    Digest b;
    b.add("x", std::nextafter(0.1, 1.0));
    b.add("n", std::int64_t{ 3 });
    CheckTally differ;
    compareExpected(b, path, differ);
    expect(differ.failed() == 1, "a one-ulp change must fail a check");
    CheckTally missing;
    compareExpected(a, dir + "/no_such_file.txt", missing);
    expect(missing.failed() == 1, "a missing file must fail");
    // Units: one wrong value fails its whole unit, once.
    CheckTally ops;
    ops.checkUnit(same, "op 1");
    ops.checkUnit(differ, "op 2");
    expect(ops.attempted() == 2 && ops.failed() == 1,
           "a unit with a failed check must count as one failure");
    std::filesystem::remove(path);
}

void
smokeWorkload(const std::string &name)
{
    RunConfig config;
    config.workload = name;
    config.seconds = 1;
    config.tiny = true;
    std::ostringstream log;
    for (const bool trace : { false, true }) {
        config.trace = trace;
        const RunResult r = runWorkload(config, log);
        const auto &defs = trace ? perLayerMetrics() : endToEndMetrics();
        std::ostringstream out;
        try {
            printResult(r, defs, out);
        } catch (const std::exception &e) {
            expect(false, name + ": " + e.what());
            continue;
        }
        expect(r.attempted > 0 && r.failed == 0,
               name + (trace ? " traced" : "") + ": output checks failed\n"
                   + log.str());
        if (!trace) {
            for (const char *m : { "setup_s", "host_op_s",
                                   "modeled_latency_s" })
                expect(r.metrics.at(m) > 0, name + ": " + m + " is 0");
            expect(r.metrics.at("ops_passed_frac") == 1.0,
                   name + ": ops_passed_frac is not 1");
            continue;
        }
        // The *_s self times plus bench.other_s are the traced wall.
        double sum = 0;
        for (const MetricDef &d : perLayerMetrics())
            if (d.self_time)
                sum += r.metrics.at(d.name);
        expectNear(sum, r.metrics.at("bench.traced_wall_s"),
                   name + ": self times + other = traced wall");
        expect(r.metrics.at("bench.traced_wall_s") > 0,
               name + ": no traced wall time");
    }
}

} // namespace

int
main(int, char **argv)
{
    const std::string dir =
        std::filesystem::absolute(argv[0]).parent_path().string();
    testNestedSpansOneThread();
    testPoolThreads();
    testNestedPools();
    testMetricDeclarations();
    testDigestChecks(dir);
    for (const auto &name : workloadNames())
        smokeWorkload(name);
    if (failures) {
        std::cerr << failures << " self-test failure(s)\n";
        return 1;
    }
    std::cout << "perfbench self-tests passed\n";
    return 0;
}
