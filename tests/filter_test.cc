/** @file The shared ssparse "+field=value" filter grammar (tools/filter.h)
 *  and the json numeric-leaf flattening behind ssparse's result mode. */
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/logging.h"
#include "json/json.h"
#include "tools/collective_parser.h"
#include "tools/filter.h"
#include "tools/log_parser.h"

namespace ss {
namespace {

// ----- lexical helpers -----

TEST(FilterGrammar, ParseU64AcceptsDecimal)
{
    EXPECT_EQ(parseU64("0", "test"), 0u);
    EXPECT_EQ(parseU64("42", "test"), 42u);
    EXPECT_EQ(parseU64("18446744073709551615", "test"), UINT64_MAX);
}

TEST(FilterGrammar, ParseU64RejectsNonNumbers)
{
    EXPECT_THROW(parseU64("", "test"), FatalError);
    EXPECT_THROW(parseU64("x", "test"), FatalError);
    EXPECT_THROW(parseU64("12x", "test"), FatalError);
    EXPECT_THROW(parseU64("1.5", "test"), FatalError);
    // No sign, no padding, no silent wrap or saturation.
    EXPECT_THROW(parseU64("-1", "test"), FatalError);
    EXPECT_THROW(parseU64("+1", "test"), FatalError);
    EXPECT_THROW(parseU64(" 1", "test"), FatalError);
    EXPECT_THROW(parseU64("18446744073709551616", "test"), FatalError);
}

TEST(FilterGrammar, SplitCsvKeepsEmptyFields)
{
    EXPECT_EQ(splitCsv("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(splitCsv("a,,b,"),
              (std::vector<std::string>{"a", "", "b", ""}));
    EXPECT_EQ(splitCsv(""), (std::vector<std::string>{""}));
}

TEST(FilterGrammar, SplitFilterSpecAtFirstEquals)
{
    using Split = std::pair<std::string, std::string>;
    EXPECT_EQ(splitFilterSpec("+name=router_0"), Split("name", "router_0"));
    EXPECT_EQ(splitFilterSpec("+name=a=b"), Split("name", "a=b"));
    EXPECT_EQ(splitFilterSpec("+name="), Split("name", ""));
}

TEST(FilterGrammar, SplitFilterSpecRejectsMalformed)
{
    EXPECT_THROW(splitFilterSpec("name=x"), FatalError);  // no '+'
    EXPECT_THROW(splitFilterSpec("+"), FatalError);
    EXPECT_THROW(splitFilterSpec("+name"), FatalError);   // no '='
    EXPECT_THROW(splitFilterSpec("+=5"), FatalError);     // no field
}

TEST(FilterGrammar, RangeOfOneValueIsExact)
{
    using Range = std::pair<std::uint64_t, std::uint64_t>;
    EXPECT_EQ(parseFilterRange("7", "+x=7"), Range(7, 7));
    EXPECT_EQ(parseFilterRange("0", "+x=0"), Range(0, 0));
}

TEST(FilterGrammar, RangeIsInclusive)
{
    using Range = std::pair<std::uint64_t, std::uint64_t>;
    EXPECT_EQ(parseFilterRange("3-9", "+x=3-9"), Range(3, 9));
    EXPECT_EQ(parseFilterRange("5-5", "+x=5-5"), Range(5, 5));
}

TEST(FilterGrammar, RangeRejectsInvertedAndMalformed)
{
    EXPECT_THROW(parseFilterRange("9-5", "+x=9-5"), FatalError);
    EXPECT_THROW(parseFilterRange("-5", "+x=-5"), FatalError);
    EXPECT_THROW(parseFilterRange("5-", "+x=5-"), FatalError);
    EXPECT_THROW(parseFilterRange("a-b", "+x=a-b"), FatalError);
    EXPECT_THROW(parseFilterRange("1-2-3", "+x=1-2-3"), FatalError);
    EXPECT_THROW(parseFilterRange("", "+x="), FatalError);
}

// ----- Filter over a reader's field table -----

struct Row {
    std::uint64_t value = 0;
    std::string label;
};

const FilterField<Row> kRowFields[] = {
    {"value", [](const Row& r) { return r.value; }},
    {"label", nullptr, &Row::label},
};

const std::vector<Row> kRows = {
    {1, "router_0.queue"}, {5, "router_1.queue"},
    {9, "router_0.power"}, {10, "engine.events"},
};

std::vector<std::uint64_t>
keptValues(const std::vector<std::string>& specs)
{
    std::vector<std::uint64_t> values;
    for (const Row& r : applyFilters<Row>(kRows, specs, kRowFields)) {
        values.push_back(r.value);
    }
    return values;
}

TEST(Filter, NumericFieldMatchesInclusiveBounds)
{
    Filter<Row> range("+value=5-9", kRowFields);
    EXPECT_FALSE(range.matches({4, ""}));
    EXPECT_TRUE(range.matches({5, ""}));
    EXPECT_TRUE(range.matches({9, ""}));
    EXPECT_FALSE(range.matches({10, ""}));
    Filter<Row> exact("+value=5", kRowFields);
    EXPECT_TRUE(exact.matches({5, ""}));
    EXPECT_FALSE(exact.matches({6, ""}));
}

TEST(Filter, TextFieldMatchesSubstring)
{
    Filter<Row> filter("+label=router_0", kRowFields);
    EXPECT_TRUE(filter.matches({0, "router_0.queue"}));
    EXPECT_TRUE(filter.matches({0, "x.router_0"}));
    EXPECT_FALSE(filter.matches({0, "router_1.queue"}));
    // An empty substring matches every record.
    Filter<Row> any("+label=", kRowFields);
    EXPECT_TRUE(any.matches({0, ""}));
    EXPECT_TRUE(any.matches({0, "engine"}));
}

TEST(Filter, TextFieldValueIsNeverParsedAsRange)
{
    // "9-5" would be an inverted range on a numeric field; on a text
    // field it is only a substring.
    Filter<Row> filter("+label=9-5", kRowFields);
    EXPECT_TRUE(filter.matches({0, "a9-5b"}));
    EXPECT_FALSE(filter.matches({0, "router_0"}));
}

TEST(Filter, UnknownFieldIsFatal)
{
    EXPECT_THROW(Filter<Row>("+nope=1", kRowFields), FatalError);
    // Field names match whole, not by prefix.
    EXPECT_THROW(Filter<Row>("+val=1", kRowFields), FatalError);
    EXPECT_THROW(Filter<Row>("+value=x", kRowFields), FatalError);
}

TEST(Filter, ApplyFiltersAndsSpecsAndKeepsOrder)
{
    EXPECT_EQ(keptValues({}),
              (std::vector<std::uint64_t>{1, 5, 9, 10}));
    EXPECT_EQ(keptValues({"+label=router"}),
              (std::vector<std::uint64_t>{1, 5, 9}));
    EXPECT_EQ(keptValues({"+label=router", "+value=5-10"}),
              (std::vector<std::uint64_t>{5, 9}));
    EXPECT_EQ(keptValues({"+label=router_0", "+value=2-8"}),
              (std::vector<std::uint64_t>{}));
}

TEST(Filter, ApplyFiltersChecksSpecsWithoutRecords)
{
    // Every spec is parsed up front, so a bad one is fatal even when no
    // record would have been tested against it.
    std::vector<Row> none;
    EXPECT_THROW(applyFilters<Row>(none, {"+value=9-5"}, kRowFields),
                 FatalError);
    EXPECT_THROW(applyFilters<Row>(none, {"+nope=1"}, kRowFields),
                 FatalError);
    EXPECT_TRUE(
        applyFilters<Row>(none, {"+value=1-5"}, kRowFields).empty());
}

// ----- the readers' field tables -----

std::string
sampleCollectiveText()
{
    return std::string(CollectiveApplication::statsHeader()) + "\n" +
           "0,0,grads,ring,4096,100,300\n"
           "0,1,acts,ring,512,300,350\n"
           "1,0,grads,ring,4096,400,600\n"
           "2,0,grads,ring,65536,700,1000\n";
}

TEST(CollectiveFilter, IterAndPayloadRanges)
{
    auto records = CollectiveParser::parseText(sampleCollectiveText());
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(CollectiveParser::apply(records, {"+iter=1-2"}).size(), 2u);
    EXPECT_EQ(CollectiveParser::apply(records, {"+iter=0"}).size(), 2u);
    EXPECT_EQ(CollectiveParser::apply(records, {"+payload=4096"}).size(),
              2u);
    EXPECT_EQ(
        CollectiveParser::apply(records, {"+payload=1024-65536"}).size(),
        3u);
    auto both = CollectiveParser::apply(records, {"+name=grads", "+iter=0"});
    ASSERT_EQ(both.size(), 1u);
    EXPECT_EQ(both[0].start, 100u);
    EXPECT_THROW(CollectiveParser::apply(records, {"+op=0"}), FatalError);
}

TEST(CollectiveFilter, RejectsBadRows)
{
    std::string header = CollectiveApplication::statsHeader();
    EXPECT_THROW(CollectiveParser::parseText(""), FatalError);
    EXPECT_THROW(CollectiveParser::parseText("iter,op\n0,0\n"), FatalError);
    EXPECT_THROW(CollectiveParser::parseText(header + "\n0,0,g,ring,8\n"),
                 FatalError);
    EXPECT_THROW(
        CollectiveParser::parseText(header + "\n0,0,g,ring,8,500,100\n"),
        FatalError);
    EXPECT_THROW(
        CollectiveParser::parseText(header + "\n0,x,g,ring,8,100,500\n"),
        FatalError);
}

TEST(SeriesFilter, TickBoundsAreInclusive)
{
    std::vector<SeriesPoint> points = {
        {99, "a", 1.0}, {100, "a", 2.0}, {200, "b", 3.0}, {201, "b", 4.0}};
    auto kept = SeriesParser::apply(points, {"+tick=100-200"});
    ASSERT_EQ(kept.size(), 2u);
    EXPECT_EQ(kept[0].tick, 100u);
    EXPECT_EQ(kept[1].tick, 200u);
    EXPECT_EQ(SeriesParser::apply(points, {"+tick=200"}).size(), 1u);
    EXPECT_THROW(SeriesParser::apply(points, {"+tick=x"}), FatalError);
}

// ----- numeric leaves of a result -----

TEST(JsonFlatten, DottedPathsThroughObjectsAndArrays)
{
    json::Value v = json::parse(R"({
        "fault": {"recover": [{"ticks": 7}, {"ticks": 9}]},
        "empty": {}, "none": null, "on": true
    })");
    std::map<std::string, double> out;
    json::flattenNumbers(v, "", &out);
    EXPECT_EQ(out.size(), 3u);
    EXPECT_DOUBLE_EQ(out.at("fault.recover.0.ticks"), 7.0);
    EXPECT_DOUBLE_EQ(out.at("fault.recover.1.ticks"), 9.0);
    EXPECT_DOUBLE_EQ(out.at("on"), 1.0);
}

TEST(JsonFlatten, PrefixNamesTheRoot)
{
    std::map<std::string, double> out;
    json::flattenNumbers(json::parse(R"({"j": 2.5})"), "energy", &out);
    EXPECT_DOUBLE_EQ(out.at("energy.j"), 2.5);
    json::flattenNumbers(json::Value(std::uint64_t{12345}), "count", &out);
    EXPECT_DOUBLE_EQ(out.at("count"), 12345.0);
    EXPECT_EQ(out.size(), 2u);
}

}  // namespace
}  // namespace ss
