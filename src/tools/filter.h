/**
 * @file
 * The one "+field=value" filter grammar of ssparse (paper §V), shared by
 * its transaction-log, time-series and collective readers. A text field
 * matches by substring, a numeric field by an inclusive range:
 *
 *   +name=router_0      text: names containing "router_0"
 *   +send=500-1000      numeric: 500 <= value <= 1000
 *   +app=0              numeric: exactly 0
 *
 * Each reader lists its fields in a table of FilterField accessors;
 * several filters AND together. A missing '+' or '=', an unknown field,
 * a malformed number and an inverted range are fatal().
 */
#ifndef SS_TOOLS_FILTER_H_
#define SS_TOOLS_FILTER_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/logging.h"

namespace ss {

/** Parses a base-10 unsigned integer; fatal() naming @p where if
 *  @p text is anything else. */
std::uint64_t parseU64(const std::string& text, const char* where);

/** Splits one CSV line at every comma (no quoting). */
std::vector<std::string> splitCsv(const std::string& line);

/** Splits "+field=value" into field and value; fatal() without the '+'
 *  or the '='. */
std::pair<std::string, std::string> splitFilterSpec(const std::string& spec);

/** Parses "lo[-hi]" into an inclusive range; fatal() on a malformed
 *  number or lo > hi. */
std::pair<std::uint64_t, std::uint64_t> parseFilterRange(
    const std::string& value, const std::string& spec);

/** A field a reader can filter on: numeric (@c number reads it) or text
 *  (@c text points at it). */
template <typename Record>
struct FilterField {
    const char* name;
    std::uint64_t (*number)(const Record&) = nullptr;
    std::string Record::*text = nullptr;
};

/** One parsed "+field=value" filter over a reader's field table. */
template <typename Record>
class Filter {
  public:
    Filter(const std::string& spec,
           std::span<const FilterField<Record>> fields)
    {
        auto [name, value] = splitFilterSpec(spec);
        auto it = std::find_if(
            fields.begin(), fields.end(),
            [&](const auto& f) { return name == f.name; });
        checkUser(it != fields.end(), "unknown filter field '", name,
                  "'");
        field_ = &*it;
        if (field_->text != nullptr) {
            substring_ = value;
        } else {
            std::tie(lo_, hi_) = parseFilterRange(value, spec);
        }
    }

    bool
    matches(const Record& r) const
    {
        if (field_->text != nullptr) {
            return (r.*field_->text).find(substring_) != std::string::npos;
        }
        std::uint64_t v = field_->number(r);
        return v >= lo_ && v <= hi_;
    }

  private:
    const FilterField<Record>* field_;
    std::string substring_;
    std::uint64_t lo_ = 0;
    std::uint64_t hi_ = 0;
};

/** Keeps the records matching every spec in @p specs; each spec is
 *  parsed once against @p fields. */
template <typename Record>
std::vector<Record>
applyFilters(const std::vector<Record>& records,
             const std::vector<std::string>& specs,
             std::span<const FilterField<Record>> fields)
{
    std::vector<Filter<Record>> filters;
    for (const auto& spec : specs) {
        filters.emplace_back(spec, fields);
    }
    std::vector<Record> kept;
    for (const Record& r : records) {
        if (std::all_of(filters.begin(), filters.end(),
                        [&](const auto& f) { return f.matches(r); })) {
            kept.push_back(r);
        }
    }
    return kept;
}

}  // namespace ss

#endif  // SS_TOOLS_FILTER_H_
