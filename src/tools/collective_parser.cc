#include "tools/collective_parser.h"

#include <fstream>
#include <sstream>

#include "core/logging.h"
#include "tools/filter.h"

namespace ss {

namespace {

const FilterField<CollectiveRecord> kCollectiveFields[] = {
    {"name", nullptr, &CollectiveRecord::name},
    {"iter",
     [](const CollectiveRecord& r) -> std::uint64_t { return r.iteration; }},
    {"payload", [](const CollectiveRecord& r) { return r.payloadBytes; }},
};

}  // namespace

bool
CollectiveParser::looksLikeCollectiveLog(const std::string& first_line)
{
    std::string line = first_line;
    if (!line.empty() && line.back() == '\r') {
        line.pop_back();
    }
    return line == CollectiveApplication::statsHeader();
}

std::vector<CollectiveRecord>
CollectiveParser::parseFile(const std::string& path)
{
    std::ifstream file(path);
    checkUser(file.good(), "cannot open collective log: ", path);
    std::ostringstream oss;
    oss << file.rdbuf();
    return parseText(oss.str());
}

std::vector<CollectiveRecord>
CollectiveParser::parseText(const std::string& text)
{
    auto field = [](const std::string& f) {
        return parseU64(f, "collective log");
    };
    std::vector<CollectiveRecord> records;
    std::istringstream stream(text);
    std::string line;
    bool first = true;
    std::size_t lineno = 0;
    while (std::getline(stream, line)) {
        ++lineno;
        if (!line.empty() && line.back() == '\r') {
            line.pop_back();
        }
        if (line.empty()) {
            continue;
        }
        if (first) {
            checkUser(looksLikeCollectiveLog(line),
                      "collective log header must be '",
                      CollectiveApplication::statsHeader(), "'");
            first = false;
            continue;
        }
        auto fields = splitCsv(line);
        checkUser(fields.size() == 7, "bad collective log row (line ",
                  lineno, "): ", line);
        CollectiveRecord record;
        record.iteration = static_cast<std::uint32_t>(field(fields[0]));
        record.opIndex = static_cast<std::uint32_t>(field(fields[1]));
        record.name = fields[2];
        record.algorithm = fields[3];
        record.payloadBytes = field(fields[4]);
        record.start = field(fields[5]);
        record.end = field(fields[6]);
        checkUser(record.end >= record.start,
                  "collective log row ends before it starts (line ",
                  lineno, "): ", line);
        records.push_back(std::move(record));
    }
    checkUser(!first, "collective log has no header");
    return records;
}

std::vector<CollectiveRecord>
CollectiveParser::apply(const std::vector<CollectiveRecord>& records,
                        const std::vector<std::string>& filter_specs)
{
    return applyFilters<CollectiveRecord>(records, filter_specs,
                                          kCollectiveFields);
}

}  // namespace ss
