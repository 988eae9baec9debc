/**
 * @file
 * Output checks: a Digest is an ordered key -> value record of a
 * workload's modeled outputs, printed with every digit so equality
 * is bit equality.  Digests are compared across repeats in one
 * process and, for the default seed, against the values captured
 * from the seed commit under perfbench/expected/.
 */

#ifndef PERFBENCH_EXPECTED_HH
#define PERFBENCH_EXPECTED_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

class Digest
{
  public:
    void add(const std::string &key, double value);
    void add(const std::string &key, std::int64_t value);

    const std::vector<std::pair<std::string, std::string>> &
    entries() const
    {
        return entries_;
    }

    bool operator==(const Digest &other) const = default;

  private:
    std::vector<std::pair<std::string, std::string>> entries_;
};

/** Count of checks attempted and failed, with the first failures. */
class CheckTally
{
  public:
    /** Record one check; keeps the first few failure messages. */
    void check(bool ok, const std::string &what);

    /** Record all of `unit`'s checks as one check, which fails when
     *  any of them failed.  A run tallies one unit per operation, so
     *  a single wrong value fails its whole operation. */
    void checkUnit(const CheckTally &unit, const std::string &what);

    std::int64_t attempted() const { return attempted_; }
    std::int64_t failed() const { return failed_; }
    const std::vector<std::string> &failures() const
    {
        return failures_;
    }

  private:
    std::int64_t attempted_ = 0;
    std::int64_t failed_ = 0;
    std::vector<std::string> failures_;
};

/**
 * One check per expected key: present in `got` with the identical
 * value.  Keys `got` has beyond the file, or a missing/unreadable
 * file, count as failed checks too.
 */
void compareExpected(const Digest &got, const std::string &path,
                     CheckTally &tally);

/** Write `digest` as `key<TAB>value` lines; false on I/O error. */
bool writeExpected(const Digest &digest, const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_EXPECTED_HH
