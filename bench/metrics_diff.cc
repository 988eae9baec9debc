/**
 * @file
 * Implementation of the replay-ledger comparator, its canonical
 * serialization and the core-oracle digest file.
 */

#include "metrics_diff.hh"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string_view>
#include <vector>

#include "obs/obs.hh"

namespace transfusion::bench
{

namespace
{

/**
 * The serve-ledger field list, scalars then histograms.  The diff
 * and the serialization both walk it, so a field added here is
 * compared and digested alike.
 */
template <class F>
void
forEachServeField(F &&f)
{
    using M = serve::ServeMetrics;
    f("offered", &M::offered);
    f("completed", &M::completed);
    f("rejected", &M::rejected);
    f("generated_tokens", &M::generated_tokens);
    f("prefill_rounds", &M::prefill_rounds);
    f("decode_rounds", &M::decode_rounds);
    f("peak_running", &M::peak_running);
    f("peak_queue", &M::peak_queue);
    f("peak_reserved_words", &M::peak_reserved_words);
    f("kv_capacity_words", &M::kv_capacity_words);
    f("makespan_s", &M::makespan_s);
    f("tokens_per_second", &M::tokens_per_second);
    f("prefill_energy_j", &M::prefill_energy_j);
    f("decode_energy_j", &M::decode_energy_j);
    f("chip_seconds", &M::chip_seconds);
    f("ttft", &M::ttft_s);
    f("tpot", &M::tpot_s);
    f("latency", &M::latency_s);
    f("queue_wait", &M::queue_wait_s);
}

/** The fleet-level field list (per-replica ledgers follow it). */
template <class F>
void
forEachFleetField(F &&f)
{
    using M = fleet::FleetMetrics;
    f("offered", &M::offered);
    f("completed", &M::completed);
    f("rejected", &M::rejected);
    f("generated_tokens", &M::generated_tokens);
    f("routed", &M::routed);
    f("held_rejected", &M::held_rejected);
    f("replica_downs", &M::replica_downs);
    f("replica_ups", &M::replica_ups);
    f("slowdown_transitions", &M::slowdown_transitions);
    f("breaker_opens", &M::breaker_opens);
    f("breaker_reopens", &M::breaker_reopens);
    f("breaker_closes", &M::breaker_closes);
    f("breaker_open_s", &M::breaker_open_s);
    f("brownout_activations", &M::brownout_activations);
    f("brownout_sheds", &M::brownout_sheds);
    f("brownout_s", &M::brownout_s);
    f("failover_drained", &M::failover_drained);
    f("failover_reroutes", &M::failover_reroutes);
    f("failover_exhausted", &M::failover_exhausted);
    f("failover_wasted_tokens", &M::failover_wasted_tokens);
    f("autoscaler_ticks", &M::autoscaler_ticks);
    f("scale_ups", &M::scale_ups);
    f("scale_downs", &M::scale_downs);
    f("peak_serving", &M::peak_serving);
    f("makespan_s", &M::makespan_s);
    f("completed_per_second", &M::completed_per_second);
    f("energy_j", &M::energy_j);
    f("chip_seconds", &M::chip_seconds);
    f("ttft", &M::ttft_s);
    f("tpot", &M::tpot_s);
    f("latency", &M::latency_s);
    f("queue_wait", &M::queue_wait_s);
}

constexpr double kPercentiles[] = { 0.0, 25.0, 50.0, 75.0, 99.0,
                                    100.0 };

template <class T>
void
diffField(std::ostream &os, const std::string &what, const T &a,
          const T &b)
{
    if (a != b)
        os << what << " " << a << " vs " << b << "; ";
}

/** Works on copies: a percentile query sorts the samples in place,
 *  so querying the caller's histograms would change what a later
 *  sum() — which adds samples in storage order — compares. */
void
diffField(std::ostream &os, const std::string &what,
          const Histogram &a_in, const Histogram &b_in)
{
    Histogram a = a_in;
    Histogram b = b_in;
    if (a.count() != b.count()) {
        os << what << " count " << a.count() << " vs " << b.count()
           << "; ";
        return;
    }
    // Before any percentile query: the sums then depend on the order
    // the samples were recorded in, not just on the sample sets.
    if (a.sum() != b.sum())
        os << what << " sum " << a.sum() << " vs " << b.sum()
           << "; ";
    for (const double p : kPercentiles)
        if (a.percentileOr(p, -1.0) != b.percentileOr(p, -1.0))
            os << what << " p" << p << " "
               << a.percentileOr(p, -1.0) << " vs "
               << b.percentileOr(p, -1.0) << "; ";
}

void
diffServe(std::ostream &os, const std::string &prefix,
          const serve::ServeMetrics &a, const serve::ServeMetrics &b)
{
    forEachServeField([&](const char *name, auto field) {
        diffField(os, prefix + name, a.*field, b.*field);
    });
}

std::string
hexFloat(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

template <class T>
void
putField(std::string &out, const std::string &what, const T &v)
{
    out += what + "=" + hexFloat(static_cast<double>(v)) + ";";
}

/** Serializes a copy, for the reason diffField gives. */
void
putField(std::string &out, const std::string &what,
         const Histogram &h_in)
{
    Histogram h = h_in;
    putField(out, what + ".count", h.count());
    putField(out, what + ".sum", h.sum());
    for (const double p : kPercentiles)
        putField(out,
                 what + ".p" + std::to_string(static_cast<int>(p)),
                 h.percentileOr(p, -1.0));
}

void
putServe(std::string &out, const std::string &prefix,
         const serve::ServeMetrics &m)
{
    forEachServeField([&](const char *name, auto field) {
        putField(out, prefix + name, m.*field);
    });
}

/** 64-bit FNV-1a. */
std::uint64_t
fnv1a64(std::string_view bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/** Whole-token parses: trailing junk is a parse failure. */
bool
parseInt64(const std::string &s, std::int64_t &v)
{
    char *end = nullptr;
    v = std::strtoll(s.c_str(), &end, 10);
    return !s.empty() && *end == '\0';
}

bool
parseDouble(const std::string &s, double &v)
{
    char *end = nullptr;
    v = std::strtod(s.c_str(), &end);
    return !s.empty() && *end == '\0';
}

bool
parseHex64(const std::string &s, std::uint64_t &v)
{
    char *end = nullptr;
    v = std::strtoull(s.c_str(), &end, 16);
    return s.size() == 16 && *end == '\0';
}

/** "offered/completed/rejected". */
bool
parseLedger(const std::string &s, ReplayDigest &d)
{
    const auto a = s.find('/');
    const auto b = s.find('/', a == std::string::npos ? a : a + 1);
    if (a == std::string::npos || b == std::string::npos)
        return false;
    return parseInt64(s.substr(0, a), d.offered)
        && parseInt64(s.substr(a + 1, b - a - 1), d.completed)
        && parseInt64(s.substr(b + 1), d.rejected);
}

} // namespace

std::string
diffServeMetrics(const serve::ServeMetrics &a,
                 const serve::ServeMetrics &b)
{
    std::ostringstream os;
    os << std::setprecision(17);
    diffServe(os, "", a, b);
    return os.str();
}

std::string
diffFleetMetrics(const fleet::FleetMetrics &a,
                 const fleet::FleetMetrics &b)
{
    std::ostringstream os;
    os << std::setprecision(17);
    forEachFleetField([&](const char *name, auto field) {
        diffField(os, name, a.*field, b.*field);
    });
    if (a.replicas.size() != b.replicas.size()) {
        os << "replica count " << a.replicas.size() << " vs "
           << b.replicas.size() << "; ";
    } else {
        for (std::size_t i = 0; i < a.replicas.size(); ++i)
            diffServe(os, "replica " + std::to_string(i) + " ",
                      a.replicas[i], b.replicas[i]);
    }
    return os.str();
}

std::string
serializeServeMetrics(const serve::ServeMetrics &m)
{
    std::string out;
    putServe(out, "", m);
    return out;
}

std::string
serializeFleetMetrics(const fleet::FleetMetrics &m)
{
    std::string out;
    forEachFleetField([&](const char *name, auto field) {
        putField(out, name, m.*field);
    });
    putField(out, "replicas", m.replicas.size());
    for (std::size_t i = 0; i < m.replicas.size(); ++i)
        putServe(out, "replica " + std::to_string(i) + " ",
                 m.replicas[i]);
    return out;
}

std::string
ReplayDigest::toLine() const
{
    return cell + "  " + std::to_string(offered) + "/"
        + std::to_string(completed) + "/" + std::to_string(rejected)
        + "  " + hexFloat(makespan_s) + "  " + hex64(metrics_fnv)
        + "  " + hex64(report_fnv);
}

ReplayDigest
digestOf(std::string cell, const fleet::FleetMetrics &m,
         const std::string &report)
{
    return { std::move(cell),
             m.offered,
             m.completed,
             m.rejected,
             m.makespan_s,
             fnv1a64(serializeFleetMetrics(m)),
             fnv1a64(report) };
}

ReplayDigest
digestOf(std::string cell, const serve::ServeMetrics &m,
         const std::string &report)
{
    return { std::move(cell),
             m.offered,
             m.completed,
             m.rejected,
             m.makespan_s,
             fnv1a64(serializeServeMetrics(m)),
             fnv1a64(report) };
}

DigestFile
DigestFile::load(const std::string &path)
{
    DigestFile f;
    f.path_ = path;
    std::ifstream in(path);
    if (!in) {
        f.error_ = path + ": cannot open the digest file";
        return f;
    }
    std::string text;
    for (int line = 1; std::getline(in, text); ++line) {
        if (text.empty() || text[0] == '#')
            continue;
        std::istringstream ss(text);
        std::vector<std::string> tok;
        for (std::string t; ss >> t;)
            tok.push_back(t);
        ReplayDigest d;
        const bool ok = tok.size() == 5 && parseLedger(tok[1], d)
            && parseDouble(tok[2], d.makespan_s)
            && parseHex64(tok[3], d.metrics_fnv)
            && parseHex64(tok[4], d.report_fnv);
        const std::string where =
            path + ":" + std::to_string(line) + ": ";
        if (!ok) {
            f.error_ = where
                + "malformed digest line (want \"cell  o/c/r  "
                  "makespan  metrics_fnv  report_fnv\"): "
                + text;
            return f;
        }
        d.cell = tok[0];
        if (!f.cells_.emplace(d.cell, std::make_pair(d, line))
                 .second) {
            f.error_ = where + "duplicate cell " + d.cell;
            return f;
        }
    }
    if (f.cells_.empty())
        f.error_ = path + ": no digest lines";
    return f;
}

std::string
DigestFile::check(const ReplayDigest &actual) const
{
    if (!error_.empty())
        return error_;
    const auto it = cells_.find(actual.cell);
    if (it == cells_.end())
        return path_ + ": no digest for cell " + actual.cell;
    const auto &[want, line] = it->second;
    const std::string where =
        path_ + ":" + std::to_string(line) + " " + actual.cell + ": ";
    std::string err;
    if (want.offered != actual.offered
        || want.completed != actual.completed
        || want.rejected != actual.rejected
        || want.makespan_s != actual.makespan_s)
        err += where + "ledger/makespan want "
            + want.toLine().substr(want.cell.size()) + " got "
            + actual.toLine().substr(actual.cell.size()) + "; ";
    if (want.metrics_fnv != actual.metrics_fnv)
        err += where + "metrics digest " + hex64(want.metrics_fnv)
            + " vs " + hex64(actual.metrics_fnv) + "; ";
    if (TRANSFUSION_OBS_ENABLED
        && want.report_fnv != actual.report_fnv)
        err += where + "report digest " + hex64(want.report_fnv)
            + " vs " + hex64(actual.report_fnv) + "; ";
    return err;
}

const DigestFile &
legacyCoreDigests()
{
    static const DigestFile file =
        DigestFile::load(TRANSFUSION_CORE_DIGESTS_FILE);
    return file;
}

const DigestFile &
saturatingChaosDigests()
{
    static const DigestFile file =
        DigestFile::load(TRANSFUSION_SATURATING_DIGESTS_FILE);
    return file;
}

} // namespace transfusion::bench
