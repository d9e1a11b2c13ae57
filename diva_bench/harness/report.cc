#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace diva_bench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double PeakRssMb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream status(path);
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

bool ResetPeakRss(int pid) {
  const std::string path = pid == 0 ? "/proc/self/clear_refs"
                                    : "/proc/" + std::to_string(pid) + "/clear_refs";
  std::ofstream out(path);
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

uint64_t Fnv1a(const void* data, size_t size, uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

bool HashFile(const std::string& path, uint64_t* hash, uint64_t* bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::vector<char> buffer(1 << 20);
  while (in) {
    in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    const size_t got = static_cast<size_t>(in.gcount());
    *hash = Fnv1a(buffer.data(), got, *hash);
    *bytes += got;
  }
  return true;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
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
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void RunResult::Metric(const std::string& name, double value,
                       const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void RunResult::Meta(const std::string& key, const std::string& json) {
  meta_.emplace_back(key, json);
}

void RunResult::MetaSamples(const std::string& key,
                            const std::vector<double>& values) {
  std::string json = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    json += (i > 0 ? ", " : "") + JsonNumber(values[i]);
  }
  Meta(key, json + "]");
}

void RunResult::Fail(const std::string& why) {
  ++failed_;
  if (failures_.size() < 32) failures_.push_back(why);
  std::fprintf(stderr, "diva_bench: FAILED: %s\n", why.c_str());
}

std::string RunResult::MetricsJson() const {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out << ", ";
    out << JsonString(metrics_[i].name) << ": {\"value\": "
        << JsonNumber(metrics_[i].value)
        << ", \"unit\": " << JsonString(metrics_[i].unit) << "}";
  }
  out << "}";
  return out.str();
}

std::string RunResult::FinalLine() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": " << MetricsJson() << "}";
  return out.str();
}

std::string RunResult::FullJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": " << MetricsJson() << ", \"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    out << (i > 0 ? ", " : "") << JsonString(failures_[i]);
  }
  out << "], \"_meta\": {";
  for (size_t i = 0; i < meta_.size(); ++i) {
    out << (i > 0 ? ", " : "") << JsonString(meta_[i].first) << ": "
        << meta_[i].second;
  }
  out << "}}";
  return out.str();
}

}  // namespace diva_bench
