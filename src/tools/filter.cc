#include "tools/filter.h"

#include <cerrno>
#include <cstdlib>

namespace ss {

std::uint64_t
parseU64(const std::string& text, const char* where)
{
    // strtoull alone would take a sign or leading spaces ("-1" wraps to
    // 2^64 - 1) and saturate on overflow.
    char* end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    checkUser(!text.empty() && text[0] >= '0' && text[0] <= '9' &&
                  end == text.c_str() + text.size() && errno != ERANGE,
              "invalid number '", text, "' in ", where);
    return v;
}

std::vector<std::string>
splitCsv(const std::string& line)
{
    std::vector<std::string> fields;
    std::string current;
    for (char c : line) {
        if (c == ',') {
            fields.push_back(current);
            current.clear();
        } else {
            current.push_back(c);
        }
    }
    fields.push_back(current);
    return fields;
}

std::pair<std::string, std::string>
splitFilterSpec(const std::string& spec)
{
    checkUser(spec.size() > 1 && spec[0] == '+',
              "filter must start with '+': ", spec);
    auto eq = spec.find('=');
    checkUser(eq != std::string::npos && eq > 1, "filter needs '=': ",
              spec);
    return {spec.substr(1, eq - 1), spec.substr(eq + 1)};
}

std::pair<std::uint64_t, std::uint64_t>
parseFilterRange(const std::string& value, const std::string& spec)
{
    auto dash = value.find('-');
    if (dash == std::string::npos) {
        std::uint64_t v = parseU64(value, "filter");
        return {v, v};
    }
    std::uint64_t lo = parseU64(value.substr(0, dash), "filter");
    std::uint64_t hi = parseU64(value.substr(dash + 1), "filter");
    checkUser(lo <= hi, "filter range inverted: ", spec);
    return {lo, hi};
}

}  // namespace ss
