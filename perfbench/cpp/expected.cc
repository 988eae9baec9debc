#include "expected.hh"

#include <cstdio>
#include <fstream>
#include <map>

namespace perfbench
{

void
Digest::add(const std::string &key, double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    entries_.emplace_back(key, buf);
}

void
Digest::add(const std::string &key, std::int64_t value)
{
    entries_.emplace_back(key, std::to_string(value));
}

void
CheckTally::check(bool ok, const std::string &what)
{
    ++attempted_;
    if (ok)
        return;
    ++failed_;
    if (failures_.size() < 20)
        failures_.push_back(what);
}

void
CheckTally::checkUnit(const CheckTally &unit, const std::string &what)
{
    check(unit.failed() == 0,
          what + ": " + std::to_string(unit.failed()) + " of "
              + std::to_string(unit.attempted()) + " checks failed");
    for (const auto &f : unit.failures())
        if (failures_.size() < 20)
            failures_.push_back(f);
}

void
compareExpected(const Digest &got, const std::string &path,
                CheckTally &tally)
{
    std::ifstream in(path);
    if (!in) {
        tally.check(false, "cannot read expected values " + path);
        return;
    }
    std::map<std::string, std::string> want;
    std::string line;
    while (std::getline(in, line)) {
        const auto tab = line.find('\t');
        if (tab == std::string::npos) {
            tally.check(false, "malformed line in " + path + ": "
                                   + line);
            continue;
        }
        want.emplace(line.substr(0, tab), line.substr(tab + 1));
    }
    std::map<std::string, std::string> have(got.entries().begin(),
                                            got.entries().end());
    for (const auto &[key, value] : want) {
        const auto it = have.find(key);
        if (it == have.end()) {
            tally.check(false, "expected " + key + " missing");
            continue;
        }
        tally.check(it->second == value, key + " = " + it->second
                                             + ", expected " + value);
    }
    for (const auto &[key, value] : have)
        if (!want.count(key))
            tally.check(false, "unexpected output " + key);
}

bool
writeExpected(const Digest &digest, const std::string &path)
{
    std::ofstream out(path);
    for (const auto &[key, value] : digest.entries())
        out << key << '\t' << value << '\n';
    return static_cast<bool>(out);
}

} // namespace perfbench
