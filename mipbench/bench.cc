#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "engine/table.h"

namespace mipbench {

void Tracer::Open(const std::string& name, const std::string& tag) {
  Span span;
  span.id = next_id_.fetch_add(1);
  span.parent = current_.load();
  span.name = name;
  span.tag = tag;
  span.t0 = NowNs();
  current_.store(span.id);
  stack_.push_back(std::move(span));
}

void Tracer::Close() {
  if (stack_.empty()) return;
  Span span = std::move(stack_.back());
  stack_.pop_back();
  span.t1 = NowNs();
  current_.store(span.parent);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

void Tracer::Record(const std::string& name, int64_t t0, int64_t t1,
                    const std::string& tag) {
  Span span;
  span.id = next_id_.fetch_add(1);
  span.parent = current_.load();
  span.name = name;
  span.t0 = t0;
  span.t1 = t1;
  span.tag = tag;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

mip::Status Tracer::Dump(const std::string& path,
                         const std::map<std::string, double>& counters) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return mip::Status::IOError("cannot write " + path);
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Names and tags are identifiers chosen by the benchmark (message
    // types, node ids, template names), so they need no JSON escaping.
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                   "\"t0\":%lld,\"t1\":%lld,\"tag\":\"%s\"}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.name.c_str(),
                   static_cast<long long>(s.t0), static_cast<long long>(s.t1),
                   s.tag.c_str());
    }
  }
  std::fprintf(f, "{\"counters\":{");
  bool first = true;
  for (const auto& [name, value] : counters) {
    std::fprintf(f, "%s\"%s\":%.17g", first ? "" : ",", name.c_str(),
                 std::isfinite(value) ? value : 0.0);
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0 ? mip::Status::OK()
                             : mip::Status::IOError("cannot close " + path);
}

bool Close(double a, double b, double tol, double floor) {
  if (a == b || (std::isnan(a) && std::isnan(b))) return true;
  if (!std::isfinite(a) || !std::isfinite(b)) return false;
  const double scale = std::max({std::fabs(a), std::fabs(b), floor});
  return std::fabs(a - b) <= tol * scale;
}

mip::Status CompareTables(const mip::engine::Table& got,
                          const mip::engine::Table& want, double tol) {
  if (got.num_rows() != want.num_rows() ||
      got.num_columns() != want.num_columns()) {
    return mip::Status::ExecutionError(
        "shape " + std::to_string(got.num_rows()) + "x" +
        std::to_string(got.num_columns()) + ", want " +
        std::to_string(want.num_rows()) + "x" +
        std::to_string(want.num_columns()));
  }
  for (size_t c = 0; c < got.num_columns(); ++c) {
    for (size_t r = 0; r < got.num_rows(); ++r) {
      const mip::engine::Value a = got.At(r, c);
      const mip::engine::Value b = want.At(r, c);
      bool same = a.kind() == b.kind();
      if (same && a.kind() == mip::engine::Value::Kind::kDouble) {
        same = Close(a.double_value(), b.double_value(), tol);
      } else if (same && a.kind() == mip::engine::Value::Kind::kInt) {
        same = a.int_value() == b.int_value();
      } else if (same && a.kind() == mip::engine::Value::Kind::kString) {
        same = a.string_value() == b.string_value();
      } else if (same && a.kind() == mip::engine::Value::Kind::kBool) {
        same = a.bool_value() == b.bool_value();
      }
      if (!same) {
        return mip::Status::ExecutionError("cell (" + std::to_string(r) + "," +
                                      std::to_string(c) + ") differs");
      }
    }
  }
  return mip::Status::OK();
}

}  // namespace mipbench
