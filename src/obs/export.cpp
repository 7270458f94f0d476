#include "obs/export.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>

#include "netbase/json.hpp"
#include "obs/build_info.hpp"

namespace zombiescope::obs {

namespace {

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct ExportedQuantile {
  std::string_view label;     // Prometheus q="..." label value
  std::string_view json_key;  // zsobs-v1 histogram object key
  double q;
};

constexpr ExportedQuantile kExportedQuantiles[] = {
    {"0.5", "p50", 0.5},
    {"0.95", "p95", 0.95},
    {"0.99", "p99", 0.99},
};

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  };
  if (!head(name[0])) return false;
  for (char c : name.substr(1))
    if (!head(c) && !std::isdigit(static_cast<unsigned char>(c))) return false;
  return true;
}

void append_json_spans(std::string& out, std::span<const SpanRecord> spans) {
  out += "  \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (i != 0) out += ',';
    out += "\n    {\"id\": " + std::to_string(s.id) +
           ", \"parent\": " + std::to_string(s.parent) + ", \"name\": \"" +
           netbase::json_escape(s.name) + "\", \"start_ns\": " + std::to_string(s.start_ns) +
           ", \"duration_ns\": " + std::to_string(s.duration_ns) + "}";
  }
  out += spans.empty() ? "]" : "\n  ]";
}

}  // namespace

std::optional<Format> parse_format(std::string_view text) {
  if (text == "prom" || text == "prometheus") return Format::kPrometheus;
  if (text == "json") return Format::kJson;
  return std::nullopt;
}

std::string prometheus_escape_label(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string prometheus_escape_help(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string to_prometheus(const Snapshot& snapshot) {
  std::string out;
  const BuildInfo& build = build_info();
  out += "# HELP zs_build_info Build identity of this binary (value is always 1).\n";
  out += "# TYPE zs_build_info gauge\n";
  out += "zs_build_info{git_sha=\"" + prometheus_escape_label(build.git_sha) +
         "\",compiler=\"" + prometheus_escape_label(build.compiler) +
         "\",build_type=\"" + prometheus_escape_label(build.build_type) +
         "\",sanitizer=\"" + prometheus_escape_label(build.sanitizer) +
         "\",arch=\"" + prometheus_escape_label(build.arch) + "\"} 1\n";
  for (const auto& [name, value] : snapshot.counters) {
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + std::to_string(value) + "\n";
  }
  for (const auto& h : snapshot.histograms) {
    out += "# TYPE " + h.name + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += h.counts[i];
      out += h.name + "_bucket{le=\"" + format_double(h.bounds[i]) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += h.name + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += h.name + "_sum " + format_double(h.sum) + "\n";
    out += h.name + "_count " + std::to_string(h.count) + "\n";
    // Precomputed quantiles as a separate gauge family: appending
    // extra samples under the histogram TYPE would be invalid
    // exposition, and a `summary` would collide with the bucket series.
    out += "# TYPE " + h.name + "_quantile gauge\n";
    for (const auto& eq : kExportedQuantiles) {
      out += h.name + "_quantile{q=\"" + std::string(eq.label) + "\"} " +
             format_double(h.quantile(eq.q)) + "\n";
    }
  }
  return out;
}

std::string to_json(const Snapshot& snapshot, std::span<const SpanRecord> spans,
                    const JsonSections& extra) {
  std::string out = "{\n  \"schema\": \"zsobs-v1\",\n";
  out += "  \"build_info\": " + build_info_json() + ",\n";
  for (const auto& [key, value] : extra) {
    out += "  \"" + netbase::json_escape(key) + "\": " + value + ",\n";
  }
  out += "  \"counters\": {";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    if (i != 0) out += ',';
    out += "\n    \"" + netbase::json_escape(snapshot.counters[i].first) +
           "\": " + std::to_string(snapshot.counters[i].second);
  }
  out += snapshot.counters.empty() ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    if (i != 0) out += ',';
    out += "\n    \"" + netbase::json_escape(snapshot.gauges[i].first) +
           "\": " + std::to_string(snapshot.gauges[i].second);
  }
  out += snapshot.gauges.empty() ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramSnapshot& h = snapshot.histograms[i];
    if (i != 0) out += ',';
    out += "\n    \"" + netbase::json_escape(h.name) + "\": {\"bounds\": [";
    for (std::size_t k = 0; k < h.bounds.size(); ++k) {
      if (k != 0) out += ", ";
      out += format_double(h.bounds[k]);
    }
    out += "], \"counts\": [";
    for (std::size_t k = 0; k < h.counts.size(); ++k) {
      if (k != 0) out += ", ";
      out += std::to_string(h.counts[k]);
    }
    out += "], \"sum\": " + format_double(h.sum) +
           ", \"count\": " + std::to_string(h.count);
    for (const auto& eq : kExportedQuantiles) {
      out += ", \"" + std::string(eq.json_key) +
             "\": " + format_double(h.quantile(eq.q));
    }
    out += "}";
  }
  out += snapshot.histograms.empty() ? "},\n" : "\n  },\n";
  append_json_spans(out, spans);
  out += "\n}\n";
  return out;
}

std::string trace_to_json(std::span<const SpanRecord> spans) {
  std::string out = "{\n  \"schema\": \"zsobs-trace-v1\",\n";
  append_json_spans(out, spans);
  out += "\n}\n";
  return out;
}

bool prometheus_format_ok(std::string_view text) {
  // Histogram bookkeeping: every series family seen via `# TYPE ...
  // histogram` must expose _bucket, _sum and _count samples.
  std::set<std::string> histogram_families;
  std::map<std::string, std::set<std::string>> histogram_series_seen;

  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // Only validate TYPE comments; HELP and free comments pass.
      if (line.rfind("# TYPE ", 0) == 0) {
        std::string_view rest = line.substr(7);
        const std::size_t space = rest.find(' ');
        if (space == std::string_view::npos) return false;
        std::string_view name = rest.substr(0, space);
        std::string_view kind = rest.substr(space + 1);
        if (!valid_metric_name(name)) return false;
        if (kind != "counter" && kind != "gauge" && kind != "histogram" &&
            kind != "summary" && kind != "untyped")
          return false;
        if (kind == "histogram") histogram_families.emplace(name);
      }
      continue;
    }
    // Sample line: name[{labels}] value
    std::size_t name_end = 0;
    while (name_end < line.size() && line[name_end] != '{' && line[name_end] != ' ')
      ++name_end;
    std::string_view name = line.substr(0, name_end);
    if (!valid_metric_name(name)) return false;
    std::size_t value_start = name_end;
    if (value_start < line.size() && line[value_start] == '{') {
      // Scan to the closing brace, honoring quoted label values: a
      // value may contain any character (backslash-escaped `\` `"` and
      // `\n`), including `}` and `,`.
      std::size_t i = value_start + 1;
      bool in_string = false;
      bool escaped = false;
      bool closed = false;
      for (; i < line.size(); ++i) {
        const char c = line[i];
        if (in_string) {
          if (escaped) escaped = false;
          else if (c == '\\') escaped = true;
          else if (c == '"') in_string = false;
        } else if (c == '"') {
          in_string = true;
        } else if (c == '}') {
          closed = true;
          ++i;
          break;
        }
      }
      if (!closed) return false;
      value_start = i;
    }
    if (value_start >= line.size() || line[value_start] != ' ') return false;
    std::string_view value = line.substr(value_start + 1);
    if (value.empty()) return false;
    if (value != "+Inf" && value != "-Inf" && value != "NaN") {
      double parsed = 0.0;
      const auto [ptr, ec] =
          std::from_chars(value.data(), value.data() + value.size(), parsed);
      if (ec != std::errc() || ptr != value.data() + value.size()) return false;
    }
    for (std::string_view suffix : {"_bucket", "_sum", "_count"}) {
      if (name.size() > suffix.size() && name.ends_with(suffix)) {
        const std::string family(name.substr(0, name.size() - suffix.size()));
        if (histogram_families.contains(family))
          histogram_series_seen[family].emplace(suffix);
      }
    }
  }
  for (const auto& family : histogram_families) {
    const auto it = histogram_series_seen.find(family);
    if (it == histogram_series_seen.end() || it->second.size() != 3) return false;
  }
  return true;
}

void write_text_file(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  if (!out) throw std::runtime_error("short write to " + path);
}

void write_metrics_file(const std::string& path, Format format) {
  const Snapshot snapshot = Registry::global().snapshot();
  if (format == Format::kPrometheus) {
    write_text_file(path, to_prometheus(snapshot));
  } else {
    const auto spans = Tracer::global().snapshot();
    write_text_file(path, to_json(snapshot, spans));
  }
}

void write_trace_file(const std::string& path) {
  write_text_file(path, trace_to_json(Tracer::global().snapshot()));
}

}  // namespace zombiescope::obs
