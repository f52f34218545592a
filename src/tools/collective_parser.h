/**
 * @file
 * Parser for the per-collective completion CSV written by the Collective
 * application ("stats_file"). One row per completed collective (and one
 * "iteration" summary row per iteration):
 *
 *   iter,op,name,algorithm,payload_bytes,start,end
 *
 * ssparse autodetects the header and aggregates durations per collective
 * name. Filters (grammar in tools/filter.h):
 *
 *   +name=grads     rows whose name contains "grads"
 *   +iter=0-3       iteration range (inclusive)
 *   +payload=4096   exact payload, or +payload=1024-65536 for a range
 */
#ifndef SS_TOOLS_COLLECTIVE_PARSER_H_
#define SS_TOOLS_COLLECTIVE_PARSER_H_

#include <string>
#include <vector>

#include "collective/collective.h"

namespace ss {

/** Reads and filters collective stats files. */
class CollectiveParser {
  public:
    /** Parses a collective stats CSV file; fatal() on format errors. */
    static std::vector<CollectiveRecord> parseFile(
        const std::string& path);

    /** Parses CSV text (header + rows). */
    static std::vector<CollectiveRecord> parseText(
        const std::string& text);

    /** True if @p first_line is the collective stats header — used by
     *  ssparse to pick the aggregation mode. */
    static bool looksLikeCollectiveLog(const std::string& first_line);

    /** Keeps records matching every "+name=substr" / "+iter=lo[-hi]" /
     *  "+payload=lo[-hi]" filter; fatal() on a malformed filter. */
    static std::vector<CollectiveRecord> apply(
        const std::vector<CollectiveRecord>& records,
        const std::vector<std::string>& filter_specs);
};

}  // namespace ss

#endif  // SS_TOOLS_COLLECTIVE_PARSER_H_
