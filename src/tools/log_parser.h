/**
 * @file
 * The SSParse-equivalent (paper §V): parses transaction logs written by
 * TransactionLog and filters them with the same "+field=value" syntax:
 *
 *   +app=0           only messages of application 0
 *   +src=3           only messages from terminal 3
 *   +dst=7           only messages to terminal 7
 *   +send=500-1000   injected between ticks 500 and 1000 (inclusive)
 *   +recv=0-2000     delivered in a tick range
 *   +create=0-100    created in a tick range
 *   +size=8          messages of exactly 8 flits
 *   +hops=3          messages that took exactly 3 hops
 *   +nonminimal=1    only messages that took a non-minimal route
 *
 * Multiple filters AND together (grammar in tools/filter.h).
 *
 * Also parses the observability time-series files written by the
 * MetricsCollector (CSV "tick,name,value" long format or JSONL
 * {"tick":N,"metrics":{...}} lines) with the same grammar over its own
 * fields:
 *
 *   +name=router_0      instruments whose name contains "router_0"
 *   +tick=1000-5000     samples in an inclusive tick range
 */
#ifndef SS_TOOLS_LOG_PARSER_H_
#define SS_TOOLS_LOG_PARSER_H_

#include <string>
#include <vector>

#include "stats/latency_sampler.h"

namespace ss {

/** Reads and filters transaction logs. */
class LogParser {
  public:
    /** Parses a CSV transaction log file; fatal() on format errors. */
    static std::vector<MessageSample> parseFile(const std::string& path);

    /** Parses CSV text (header + rows). */
    static std::vector<MessageSample> parseText(const std::string& text);

    /** Keeps samples matching every "+field=value" filter (fields
     *  above); fatal() on a malformed filter. */
    static std::vector<MessageSample> apply(
        const std::vector<MessageSample>& samples,
        const std::vector<std::string>& filter_specs);
};

/** One instrument sample from an observability time-series file. */
struct SeriesPoint {
    std::uint64_t tick = 0;
    std::string name;
    double value = 0.0;
};

/** Reads and filters observability time-series files. */
class SeriesParser {
  public:
    /** Parses a series file, autodetecting CSV vs JSONL from content;
     *  fatal() on format errors. */
    static std::vector<SeriesPoint> parseFile(const std::string& path);

    /** Parses series text (CSV with tick,name,value header or JSONL). */
    static std::vector<SeriesPoint> parseText(const std::string& text);

    /** True if @p first_line looks like a series file (rather than a
     *  transaction log) — used by ssparse to pick the mode. */
    static bool looksLikeSeries(const std::string& first_line);

    /** Keeps points matching every "+name=substr" / "+tick=lo[-hi]"
     *  filter; fatal() on a malformed filter. */
    static std::vector<SeriesPoint> apply(
        const std::vector<SeriesPoint>& points,
        const std::vector<std::string>& filter_specs);
};

}  // namespace ss

#endif  // SS_TOOLS_LOG_PARSER_H_
