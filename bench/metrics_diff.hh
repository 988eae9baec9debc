/**
 * @file
 * Bitwise comparison of serve and fleet replay ledgers — the one
 * comparator behind every "these two replays are identical" check
 * (fault/fleet unit tests, the differential replay harness, the
 * chaos harness and its sweep binary) — and the canonical
 * serialization those ledgers are digested with.
 *
 * The diffs return a description of every differing field instead
 * of asserting, so gtest callers wrap them in EXPECT_EQ(..., "")
 * and ThreadPool workers (where gtest assertions are not
 * thread-safe) collect the strings.  Doubles compare with `!=`
 * (bitwise for non-NaN values); histograms compare by sample
 * count, sum in recorded order and order statistics, which pins
 * their sample sets and, through the sum's last bits, the order
 * they were recorded in.  Neither argument is modified.
 *
 * The serialization walks the same field list as the diffs (one
 * owner: metrics_diff.cc), so two ledgers serialize equal exactly
 * when they diff equal.  Its FNV-1a digests, together with the
 * replay's RunReport digest, are what the committed core-oracle
 * file (tests/integration/data/legacy_core_digests.txt) records
 * per replay cell.
 */

#ifndef TRANSFUSION_BENCH_METRICS_DIFF_HH
#define TRANSFUSION_BENCH_METRICS_DIFF_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "fleet/fleet_metrics.hh"
#include "serve/simulator.hh"

namespace transfusion::bench
{

/** Every differing field of two serve ledgers; empty = equal. */
std::string diffServeMetrics(const serve::ServeMetrics &a,
                             const serve::ServeMetrics &b);

/** Every differing field of two fleet replays, per-replica serve
 *  ledgers included; empty = equal. */
std::string diffFleetMetrics(const fleet::FleetMetrics &a,
                             const fleet::FleetMetrics &b);

/**
 * Canonical serialization of every field diffServeMetrics
 * compares, in its order: each scalar as a hex-float (counts are
 * exact below 2^53), each histogram (from a copy) as count, sum in
 * recorded order, then p0/25/50/75/99/100.
 */
std::string serializeServeMetrics(const serve::ServeMetrics &m);

/** serializeServeMetrics for a fleet replay: the fleet fields
 *  diffFleetMetrics compares, then each replica's serve ledger. */
std::string serializeFleetMetrics(const fleet::FleetMetrics &m);

/** One replay cell's digest: one line of the core-oracle file. */
struct ReplayDigest
{
    /** Cell name, no whitespace (e.g. "chaos/seed7"). */
    std::string cell;
    std::int64_t offered = 0;
    std::int64_t completed = 0;
    std::int64_t rejected = 0;
    double makespan_s = 0;
    /** 64-bit FNV-1a of the serialized metrics. */
    std::uint64_t metrics_fnv = 0;
    /** 64-bit FNV-1a of the replay's RunReport string. */
    std::uint64_t report_fnv = 0;

    /** "cell  offered/completed/rejected  makespan(%a)
     *  metrics_fnv  report_fnv" (two-space separated, hex
     *  digests). */
    std::string toLine() const;
};

ReplayDigest digestOf(std::string cell,
                      const fleet::FleetMetrics &m,
                      const std::string &report);
ReplayDigest digestOf(std::string cell,
                      const serve::ServeMetrics &m,
                      const std::string &report);

/**
 * A parsed core-oracle file: `#` comment lines, blank lines, and
 * one ReplayDigest::toLine() per cell.  Loading never aborts: a
 * missing file, a malformed or duplicate line is kept as error(),
 * naming the file (and line), and every check() then fails with
 * it — the file can never pass vacuously.
 */
class DigestFile
{
  public:
    static DigestFile load(const std::string &path);

    const std::string &path() const { return path_; }
    /** Empty when the whole file parsed. */
    const std::string &error() const { return error_; }
    bool has(const std::string &cell) const
    {
        return cells_.count(cell) != 0;
    }

    /**
     * Every field of `actual` that differs from the committed
     * digest of its cell; empty = equal.  A load error or a cell
     * missing from the file is a failure too.  The report digest
     * is compared only in builds that record reports
     * (TRANSFUSION_OBS on): with observability compiled out every
     * report is empty.
     */
    std::string check(const ReplayDigest &actual) const;

  private:
    std::string path_;
    std::string error_;
    /** Cell -> (digest, 1-based line number). */
    std::map<std::string, std::pair<ReplayDigest, int>> cells_;
};

/** The committed core-oracle digests, loaded once per process
 *  (path compiled in; see bench/CMakeLists.txt). */
const DigestFile &legacyCoreDigests();

/** The committed digests of the saturating chaos cell
 *  (tests/integration/data/saturating_chaos_digests.txt), loaded
 *  once per process. */
const DigestFile &saturatingChaosDigests();

} // namespace transfusion::bench

#endif // TRANSFUSION_BENCH_METRICS_DIFF_HH
