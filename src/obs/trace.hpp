// Chrome trace-event export of the par::Profiler span rings.
//
// Renders a Profiler::collect_trace() dump as the JSON object format
// ({"traceEvents": [...]}) understood by Perfetto and chrome://tracing:
// complete events (ph "X") with microsecond timestamps relative to the
// earliest span, pid = rank + 1 (pid 0 groups the non-rank threads:
// producers, pools, exporters), tid = the profiler's process-local thread
// id, and the epoch tag under args. Request-scoped tags (query id/class,
// snapshot version) are rendered under args when set, and matched
// FlowDir::Start/Finish span pairs become flow events (ph "s"/"f") — one
// pair per consuming query span, each with a unique id — so Perfetto draws
// an arrow from the publish span that produced a snapshot to every query
// answered from it. Loading a --trace-out file makes overlap windows (posted
// reductions under the next multiply, WAL-overlapped drains) directly
// visible as parallel tracks.
//
// scripts/check-trace.py validates this format in CI.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>

#include "par/profiler.hpp"

namespace dsg::obs {

/// Renders `dump` as Chrome trace JSON. Spans are sorted by (pid, tid,
/// start) so nested brackets of one thread stay adjacent and properly
/// ordered for viewers. Flow events are emitted only for Finish spans whose
/// flow id also has a Start span in the dump (and vice versa), so a
/// published-but-never-queried snapshot — or a pair half lost to ring
/// wraparound — never produces a dangling flow end.
[[nodiscard]] inline std::string to_chrome_trace(par::TraceDump dump) {
    std::sort(dump.spans.begin(), dump.spans.end(),
              [](const par::TraceSpan& a, const par::TraceSpan& b) {
                  if (a.rank != b.rank) return a.rank < b.rank;
                  if (a.tid != b.tid) return a.tid < b.tid;
                  return a.start_ns < b.start_ns;
              });
    std::uint64_t base_ns = 0;
    for (const par::TraceSpan& s : dump.spans)
        if (base_ns == 0 || s.start_ns < base_ns) base_ns = s.start_ns;

    // Flow producers: last Start span per flow id (re-publishes of one
    // version, e.g. publish_on_attach, keep the newest).
    std::unordered_map<std::uint64_t, const par::TraceSpan*> starts;
    for (const par::TraceSpan& s : dump.spans)
        if (s.flow == par::FlowDir::Start && s.flow_id != 0)
            starts[s.flow_id] = &s;

    std::string out = "{\"traceEvents\": [";
    char buf[384];
    bool first = true;
    for (const par::TraceSpan& s : dump.spans) {
        if (!first) out += ",";
        first = false;
        const double ts_us =
            static_cast<double>(s.start_ns - base_ns) / 1e3;
        const double dur_us = static_cast<double>(s.dur_ns) / 1e3;
        std::string args;
        std::snprintf(buf, sizeof buf, "\"epoch\": %lld, \"rank\": %d",
                      static_cast<long long>(s.epoch), s.rank);
        args = buf;
        if (s.qid != 0) {
            std::snprintf(buf, sizeof buf, ", \"qid\": %llu, \"qclass\": %d",
                          static_cast<unsigned long long>(s.qid), s.qclass);
            args += buf;
        }
        if (s.snapshot_version >= 0) {
            std::snprintf(buf, sizeof buf, ", \"snapshot_version\": %lld",
                          static_cast<long long>(s.snapshot_version));
            args += buf;
        }
        std::snprintf(buf, sizeof buf,
                      "\n{\"name\": \"%.*s\", \"ph\": \"X\", \"ts\": %.3f, "
                      "\"dur\": %.3f, \"pid\": %d, \"tid\": %u, "
                      "\"args\": {%s}}",
                      static_cast<int>(par::phase_name(s.phase).size()),
                      par::phase_name(s.phase).data(), ts_us, dur_us,
                      s.rank + 1, s.tid, args.c_str());
        out += buf;
    }

    // One s/f pair per query span that consumed a published snapshot, each
    // pair under its own sequential id (strictly 1:1, the shape viewers and
    // check-trace.py expect). Both halves are anchored to the midpoint of
    // their span so the enclosing slice is unambiguous.
    std::uint64_t next_flow = 0;
    for (const par::TraceSpan& s : dump.spans) {
        if (s.flow != par::FlowDir::Finish || s.flow_id == 0) continue;
        const auto it = starts.find(s.flow_id);
        if (it == starts.end()) continue;
        const par::TraceSpan& p = *it->second;
        ++next_flow;
        const double s_ts =
            (static_cast<double>(p.start_ns - base_ns) +
             static_cast<double>(p.dur_ns) / 2.0) / 1e3;
        const double f_ts =
            (static_cast<double>(s.start_ns - base_ns) +
             static_cast<double>(s.dur_ns) / 2.0) / 1e3;
        std::snprintf(
            buf, sizeof buf,
            ",\n{\"name\": \"snapshot\", \"cat\": \"flow\", \"ph\": \"s\", "
            "\"id\": %llu, \"ts\": %.3f, \"pid\": %d, \"tid\": %u, "
            "\"args\": {\"snapshot_version\": %lld}}",
            static_cast<unsigned long long>(next_flow), s_ts, p.rank + 1,
            p.tid, static_cast<long long>(s.flow_id) - 1);
        out += buf;
        std::snprintf(
            buf, sizeof buf,
            ",\n{\"name\": \"snapshot\", \"cat\": \"flow\", \"ph\": \"f\", "
            "\"bp\": \"e\", \"id\": %llu, \"ts\": %.3f, \"pid\": %d, "
            "\"tid\": %u, \"args\": {\"snapshot_version\": %lld, "
            "\"qid\": %llu}}",
            static_cast<unsigned long long>(next_flow), f_ts, s.rank + 1,
            s.tid, static_cast<long long>(s.flow_id) - 1,
            static_cast<unsigned long long>(s.qid));
        out += buf;
    }

    out += "\n], \"displayTimeUnit\": \"ms\", \"otherData\": "
           "{\"dropped_spans\": " +
           std::to_string(dump.dropped) + "}}\n";
    return out;
}

/// Collects the current rings and writes the Chrome trace JSON to `path`.
/// Returns false when the file can't be opened.
inline bool write_chrome_trace(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string json = to_chrome_trace(par::Profiler::collect_trace());
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    return true;
}

}  // namespace dsg::obs
