// Minimal JSON support for the telemetry subsystem: string escaping for the
// emitters, a small recursive-descent parser, and the validator for the
// common telemetry schema ("rvm-telemetry-v1") that `rvmutl stats --json`,
// the bench binaries, and the poison flight-recorder dump all share.
//
// The schema (DESIGN.md §10):
//
//   {
//     "schema": "rvm-telemetry-v1",
//     "source": "<emitting binary / subcommand>",
//     "runs": [
//       {
//         "name": "<workload or phase name>",
//         "counters": { "<counter>": <integer>, ... },
//         "histograms": {
//           "<histogram>": {
//             "count": N, "sum": N, "min": N, "max": N,
//             "mean": X, "p50": X, "p90": X, "p99": X,
//             "buckets": [ {"le": N, "count": N}, ... ]
//           }, ...
//         }
//       }, ...
//     ]
//   }
//
// Extra top-level keys (e.g. the poison dump's "reason" and "trace") are
// allowed; at least one run must carry a "commit_latency_us" histogram so a
// benchmark trajectory always has the headline distribution to diff.
//
// The time-series companion schema ("rvm-timeseries-v3", DESIGN.md §11) is
// JSONL rather than one document — a header line followed by one sample
// object per line, so a sampler flush is a pure append:
//
//   {"schema": "rvm-timeseries-v3", "source": "...", "sample_interval_us": N}
//   {"t": <us>,
//    "gauges": {"<gauge>": <number>, ...,
//               "regions": [{"segment": "<path>", "<field>": N, ...}, ...],
//               "shards": [{"shard": K, "<field>": N, ...}, ...]},
//    "counters": {"<counter>": <number>, ...}}
//   ...
//
// Sample timestamps must be non-decreasing; "gauges" is required (flat
// numbers plus the optional per-region and per-shard row arrays), "counters"
// is optional. A region row is keyed by its string "segment", a shard row by
// its numeric "shard"; every other row member is a number named as in the
// row's ForEachField (the rvm_region_* / rvm_shard_* exposition suffixes).
// No key appears in both "gauges" and "counters".
//
// The span schema ("rvm-spans-v1", DESIGN.md §15) is also JSONL — a header
// line followed by one span per line, ordered by start time:
//
//   {"schema": "rvm-spans-v1", "source": "...", "shards": N}
//   {"span_id": N, "parent_id": N, "tid": N, "kind": "commit",
//    "shard": N, "start_us": N, "end_us": N, "arg": N}
//   ...
//
// span_id is nonzero; parent_id 0 marks a root; end_us >= start_us; shard
// must lie below the header's shard count.
#ifndef RVM_TELEMETRY_JSON_H_
#define RVM_TELEMETRY_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace rvm {

inline constexpr char kTelemetrySchemaVersion[] = "rvm-telemetry-v1";
inline constexpr char kTimeseriesSchemaVersion[] = "rvm-timeseries-v3";
inline constexpr char kSpansSchemaVersion[] = "rvm-spans-v1";

// Escapes `text` for embedding inside a JSON string literal (quotes not
// included).
std::string JsonEscape(std::string_view text);

// A parsed JSON value. Objects preserve key order (the emitters are
// deterministic, so trajectories diff cleanly).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
  bool IsNumber() const { return kind == Kind::kNumber; }
  bool IsString() const { return kind == Kind::kString; }
  bool IsArray() const { return kind == Kind::kArray; }
  bool IsObject() const { return kind == Kind::kObject; }
};

// Parses a complete JSON document (trailing whitespace allowed, nothing
// else). kInvalidArgument with a position on malformed input.
StatusOr<JsonValue> ParseJson(std::string_view text);

// Structural validation of the common telemetry schema described above.
Status ValidateTelemetryJson(std::string_view text);

// Structural validation of an rvm-timeseries-v3 JSONL document (header line
// plus at least one sample line, per the layout described above).
Status ValidateTimeseriesJsonl(std::string_view text);

// Structural validation of an rvm-spans-v1 JSONL document (header line plus
// at least one span line, per the layout described above).
Status ValidateSpansJsonl(std::string_view text);

// One entry in the schema registry: everything a tool needs to recognize and
// validate a telemetry document of this kind.
struct JsonSchema {
  const char* name;         // the "schema" field value, e.g. "rvm-spans-v1"
  const char* description;  // one-line summary for --help / error messages
  bool jsonl;               // line-oriented (header + records) vs one document
  Status (*validate)(std::string_view text);
};

// Every schema the telemetry subsystem emits, in a fixed order. New schemas
// register here and nowhere else: `rvmutl check-json` sniffs and validates
// purely through this table, so a schema missing from it is invisible to the
// tooling — the registry is the single source of truth.
const std::vector<JsonSchema>& JsonSchemaRegistry();

// Identifies which registered schema `text` declares, by locating the
// schema name string near the start of the document (schemas self-identify
// in their header/top object). nullptr when no registered schema matches.
const JsonSchema* SniffJsonSchema(std::string_view text);

}  // namespace rvm

#endif  // RVM_TELEMETRY_JSON_H_
