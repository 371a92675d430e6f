#include "src/telemetry/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace rvm {

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned char>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) {
    return nullptr;
  }
  for (const auto& [member_key, value] : object) {
    if (member_key == key) {
      return &value;
    }
  }
  return nullptr;
}

namespace {

// Recursive-descent parser over a string_view with an explicit cursor.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> ParseDocument() {
    RVM_ASSIGN_OR_RETURN(JsonValue value, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after document");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) {
    return InvalidArgument("JSON parse error at offset " +
                           std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  StatusOr<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) {
      return Error("nesting too deep");
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    char c = text_[pos_];
    JsonValue value;
    if (c == '{') {
      return ParseObject(depth);
    }
    if (c == '[') {
      return ParseArray(depth);
    }
    if (c == '"') {
      RVM_ASSIGN_OR_RETURN(value.string, ParseString());
      value.kind = JsonValue::Kind::kString;
      return value;
    }
    if (ConsumeLiteral("true")) {
      value.kind = JsonValue::Kind::kBool;
      value.boolean = true;
      return value;
    }
    if (ConsumeLiteral("false")) {
      value.kind = JsonValue::Kind::kBool;
      return value;
    }
    if (ConsumeLiteral("null")) {
      return value;
    }
    return ParseNumber();
  }

  StatusOr<JsonValue> ParseObject(int depth) {
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    Consume('{');
    SkipWhitespace();
    if (Consume('}')) {
      return value;
    }
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      RVM_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) {
        return Error("expected ':' after object key");
      }
      RVM_ASSIGN_OR_RETURN(JsonValue member, ParseValue(depth + 1));
      value.object.emplace_back(std::move(key), std::move(member));
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return value;
      }
      return Error("expected ',' or '}' in object");
    }
  }

  StatusOr<JsonValue> ParseArray(int depth) {
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    Consume('[');
    SkipWhitespace();
    if (Consume(']')) {
      return value;
    }
    for (;;) {
      RVM_ASSIGN_OR_RETURN(JsonValue element, ParseValue(depth + 1));
      value.array.push_back(std::move(element));
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return value;
      }
      return Error("expected ',' or ']' in array");
    }
  }

  StatusOr<std::string> ParseString() {
    Consume('"');
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      char escape = text_[pos_++];
      switch (escape) {
        case '"':
        case '\\':
        case '/':
          out += escape;
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Error("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char hex = text_[pos_++];
            code <<= 4;
            if (hex >= '0' && hex <= '9') {
              code |= static_cast<unsigned>(hex - '0');
            } else if (hex >= 'a' && hex <= 'f') {
              code |= static_cast<unsigned>(hex - 'a' + 10);
            } else if (hex >= 'A' && hex <= 'F') {
              code |= static_cast<unsigned>(hex - 'A' + 10);
            } else {
              return Error("bad \\u escape digit");
            }
          }
          // Telemetry emits ASCII only; render BMP code points as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return Error("unknown escape character");
      }
    }
    return Error("unterminated string");
  }

  StatusOr<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Error("expected a value");
    }
    std::string number(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double parsed = std::strtod(number.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      pos_ = start;
      return Error("malformed number");
    }
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    value.number = parsed;
    return value;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

Status RequireNumber(const JsonValue& histogram, const char* hist_name,
                     const char* field) {
  const JsonValue* value = histogram.Find(field);
  if (value == nullptr || !value->IsNumber()) {
    return InvalidArgument("histogram '" + std::string(hist_name) +
                           "' missing numeric field '" + field + "'");
  }
  return OkStatus();
}

Status ValidateHistogram(const std::string& name, const JsonValue& histogram) {
  if (!histogram.IsObject()) {
    return InvalidArgument("histogram '" + name + "' is not an object");
  }
  for (const char* field :
       {"count", "sum", "min", "max", "mean", "p50", "p90", "p99"}) {
    RVM_RETURN_IF_ERROR(RequireNumber(histogram, name.c_str(), field));
  }
  const JsonValue* buckets = histogram.Find("buckets");
  if (buckets == nullptr || !buckets->IsArray()) {
    return InvalidArgument("histogram '" + name + "' missing buckets array");
  }
  for (const JsonValue& bucket : buckets->array) {
    if (!bucket.IsObject() || bucket.Find("le") == nullptr ||
        !bucket.Find("le")->IsNumber() || bucket.Find("count") == nullptr ||
        !bucket.Find("count")->IsNumber()) {
      return InvalidArgument("histogram '" + name +
                             "' has a malformed bucket entry");
    }
  }
  return OkStatus();
}

}  // namespace

StatusOr<JsonValue> ParseJson(std::string_view text) {
  return JsonParser(text).ParseDocument();
}

Status ValidateTelemetryJson(std::string_view text) {
  RVM_ASSIGN_OR_RETURN(JsonValue document, ParseJson(text));
  if (!document.IsObject()) {
    return InvalidArgument("telemetry document is not a JSON object");
  }
  const JsonValue* schema = document.Find("schema");
  if (schema == nullptr || !schema->IsString() ||
      schema->string != kTelemetrySchemaVersion) {
    return InvalidArgument(std::string("missing or wrong schema (expected \"") +
                           kTelemetrySchemaVersion + "\")");
  }
  const JsonValue* source = document.Find("source");
  if (source == nullptr || !source->IsString() || source->string.empty()) {
    return InvalidArgument("missing nonempty string field 'source'");
  }
  const JsonValue* runs = document.Find("runs");
  if (runs == nullptr || !runs->IsArray() || runs->array.empty()) {
    return InvalidArgument("missing nonempty array field 'runs'");
  }
  bool has_commit_latency = false;
  for (size_t i = 0; i < runs->array.size(); ++i) {
    const JsonValue& run = runs->array[i];
    const std::string where = "runs[" + std::to_string(i) + "]";
    if (!run.IsObject()) {
      return InvalidArgument(where + " is not an object");
    }
    const JsonValue* name = run.Find("name");
    if (name == nullptr || !name->IsString() || name->string.empty()) {
      return InvalidArgument(where + " missing nonempty string field 'name'");
    }
    const JsonValue* counters = run.Find("counters");
    if (counters == nullptr || !counters->IsObject()) {
      return InvalidArgument(where + " missing object field 'counters'");
    }
    for (const auto& [counter_name, counter] : counters->object) {
      if (!counter.IsNumber()) {
        return InvalidArgument(where + " counter '" + counter_name +
                               "' is not a number");
      }
    }
    const JsonValue* histograms = run.Find("histograms");
    if (histograms == nullptr || !histograms->IsObject()) {
      return InvalidArgument(where + " missing object field 'histograms'");
    }
    for (const auto& [hist_name, histogram] : histograms->object) {
      RVM_RETURN_IF_ERROR(ValidateHistogram(hist_name, histogram));
      if (hist_name == "commit_latency_us") {
        has_commit_latency = true;
      }
    }
  }
  if (!has_commit_latency) {
    return InvalidArgument(
        "no run carries a 'commit_latency_us' histogram (required for "
        "benchmark trajectories)");
  }
  return OkStatus();
}

namespace {

// Validates one sample line's "gauges" object: flat numbers, plus optional
// "regions" and "shards" row arrays (the latter emitted by multi-shard
// instances, DESIGN.md §12), each row keyed by `label` ("segment" string or
// "shard" number) with every other member numeric.
Status ValidateGauges(const std::string& where, const JsonValue& gauges) {
  if (!gauges.IsObject()) {
    return InvalidArgument(where + " 'gauges' is not an object");
  }
  for (const auto& [name, value] : gauges.object) {
    if (name == "regions" || name == "shards") {
      if (!value.IsArray()) {
        return InvalidArgument(where + " 'gauges." + name +
                               "' is not an array");
      }
      const bool regions = name == "regions";
      const char* label = regions ? "segment" : "shard";
      for (const JsonValue& row : value.array) {
        if (!row.IsObject()) {
          return InvalidArgument(where + " 'gauges." + name +
                                 "' entry is not an object");
        }
        const JsonValue* key = row.Find(label);
        if (key == nullptr || (regions ? !key->IsString() : !key->IsNumber())) {
          return InvalidArgument(where + " 'gauges." + name +
                                 "' entry missing '" + label + "'");
        }
        for (const auto& [field, field_value] : row.object) {
          if (field != label && !field_value.IsNumber()) {
            return InvalidArgument(where + " 'gauges." + name + "' field '" +
                                   field + "' is not a number");
          }
        }
      }
      continue;
    }
    if (!value.IsNumber()) {
      return InvalidArgument(where + " gauge '" + name + "' is not a number");
    }
  }
  return OkStatus();
}

}  // namespace

Status ValidateTimeseriesJsonl(std::string_view text) {
  size_t line_number = 0;
  size_t sample_count = 0;
  double last_timestamp = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) {
      continue;
    }
    ++line_number;
    const std::string where = "line " + std::to_string(line_number);
    RVM_ASSIGN_OR_RETURN(JsonValue value, ParseJson(line));
    if (!value.IsObject()) {
      return InvalidArgument(where + " is not a JSON object");
    }
    if (line_number == 1) {
      const JsonValue* schema = value.Find("schema");
      if (schema == nullptr || !schema->IsString() ||
          schema->string != kTimeseriesSchemaVersion) {
        return InvalidArgument(
            std::string("header missing or wrong schema (expected \"") +
            kTimeseriesSchemaVersion + "\")");
      }
      const JsonValue* source = value.Find("source");
      if (source == nullptr || !source->IsString() || source->string.empty()) {
        return InvalidArgument("header missing nonempty string 'source'");
      }
      const JsonValue* interval = value.Find("sample_interval_us");
      if (interval == nullptr || !interval->IsNumber()) {
        return InvalidArgument("header missing numeric 'sample_interval_us'");
      }
      continue;
    }
    const JsonValue* timestamp = value.Find("t");
    if (timestamp == nullptr || !timestamp->IsNumber()) {
      return InvalidArgument(where + " missing numeric timestamp 't'");
    }
    if (sample_count > 0 && timestamp->number < last_timestamp) {
      return InvalidArgument(where + " timestamp decreases");
    }
    last_timestamp = timestamp->number;
    const JsonValue* gauges = value.Find("gauges");
    if (gauges == nullptr) {
      return InvalidArgument(where + " missing object 'gauges'");
    }
    RVM_RETURN_IF_ERROR(ValidateGauges(where, *gauges));
    const JsonValue* counters = value.Find("counters");
    if (counters != nullptr) {
      if (!counters->IsObject()) {
        return InvalidArgument(where + " 'counters' is not an object");
      }
      for (const auto& [name, counter] : counters->object) {
        if (!counter.IsNumber()) {
          return InvalidArgument(where + " counter '" + name +
                                 "' is not a number");
        }
        if (gauges->Find(name) != nullptr) {
          return InvalidArgument(where + " '" + name +
                                 "' is both a gauge and a counter");
        }
      }
    }
    ++sample_count;
  }
  if (line_number == 0) {
    return InvalidArgument("empty time-series document");
  }
  if (sample_count == 0) {
    return InvalidArgument("time-series document has a header but no samples");
  }
  return OkStatus();
}

Status ValidateSpansJsonl(std::string_view text) {
  size_t line_number = 0;
  size_t span_count = 0;
  double shard_count = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) {
      continue;
    }
    ++line_number;
    const std::string where = "line " + std::to_string(line_number);
    RVM_ASSIGN_OR_RETURN(JsonValue value, ParseJson(line));
    if (!value.IsObject()) {
      return InvalidArgument(where + " is not a JSON object");
    }
    if (line_number == 1) {
      const JsonValue* schema = value.Find("schema");
      if (schema == nullptr || !schema->IsString() ||
          schema->string != kSpansSchemaVersion) {
        return InvalidArgument(
            std::string("header missing or wrong schema (expected \"") +
            kSpansSchemaVersion + "\")");
      }
      const JsonValue* source = value.Find("source");
      if (source == nullptr || !source->IsString() || source->string.empty()) {
        return InvalidArgument("header missing nonempty string 'source'");
      }
      const JsonValue* shards = value.Find("shards");
      if (shards == nullptr || !shards->IsNumber() || shards->number < 1) {
        return InvalidArgument("header missing numeric 'shards' >= 1");
      }
      shard_count = shards->number;
      continue;
    }
    const JsonValue* span_id = value.Find("span_id");
    if (span_id == nullptr || !span_id->IsNumber() || span_id->number < 1) {
      return InvalidArgument(where + " missing numeric 'span_id' >= 1");
    }
    const JsonValue* parent_id = value.Find("parent_id");
    if (parent_id == nullptr || !parent_id->IsNumber()) {
      return InvalidArgument(where + " missing numeric 'parent_id'");
    }
    const JsonValue* tid = value.Find("tid");
    if (tid == nullptr || !tid->IsNumber()) {
      return InvalidArgument(where + " missing numeric 'tid'");
    }
    const JsonValue* kind = value.Find("kind");
    if (kind == nullptr || !kind->IsString() || kind->string.empty()) {
      return InvalidArgument(where + " missing nonempty string 'kind'");
    }
    const JsonValue* shard = value.Find("shard");
    if (shard == nullptr || !shard->IsNumber()) {
      return InvalidArgument(where + " missing numeric 'shard'");
    }
    if (shard->number >= shard_count) {
      return InvalidArgument(where + " 'shard' exceeds the header count");
    }
    const JsonValue* start_us = value.Find("start_us");
    if (start_us == nullptr || !start_us->IsNumber()) {
      return InvalidArgument(where + " missing numeric 'start_us'");
    }
    const JsonValue* end_us = value.Find("end_us");
    if (end_us == nullptr || !end_us->IsNumber()) {
      return InvalidArgument(where + " missing numeric 'end_us'");
    }
    if (end_us->number < start_us->number) {
      return InvalidArgument(where + " 'end_us' precedes 'start_us'");
    }
    const JsonValue* arg = value.Find("arg");
    if (arg == nullptr || !arg->IsNumber()) {
      return InvalidArgument(where + " missing numeric 'arg'");
    }
    ++span_count;
  }
  if (line_number == 0) {
    return InvalidArgument("empty span document");
  }
  if (span_count == 0) {
    return InvalidArgument("span document has a header but no spans");
  }
  return OkStatus();
}

const std::vector<JsonSchema>& JsonSchemaRegistry() {
  static const std::vector<JsonSchema> kRegistry = {
      {kTelemetrySchemaVersion,
       "single JSON document of per-run counters and histograms",
       /*jsonl=*/false, &ValidateTelemetryJson},
      {kTimeseriesSchemaVersion,
       "JSONL time series of sampled gauges and counters",
       /*jsonl=*/true, &ValidateTimeseriesJsonl},
      {kSpansSchemaVersion,
       "JSONL per-transaction span trees",
       /*jsonl=*/true, &ValidateSpansJsonl},
  };
  return kRegistry;
}

const JsonSchema* SniffJsonSchema(std::string_view text) {
  // Every schema self-identifies with a "schema" member in its first object
  // (the JSONL header line or the document's top level), so the quoted name
  // appears within the first few hundred bytes. Sniffing by substring keeps
  // this usable on malformed documents — the point is to pick a validator,
  // which then produces the real diagnostic.
  std::string_view head = text.substr(0, 512);
  for (const JsonSchema& schema : JsonSchemaRegistry()) {
    std::string quoted = "\"" + std::string(schema.name) + "\"";
    if (head.find(quoted) != std::string_view::npos) {
      return &schema;
    }
  }
  return nullptr;
}

}  // namespace rvm
