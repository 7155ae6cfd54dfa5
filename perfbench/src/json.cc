#include "json.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
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

bool JsonObject::Add(const std::string& key, std::string rendered) {
  if (Has(key)) {
    if (duplicate_key_.empty()) duplicate_key_ = key;
    return false;
  }
  fields_.emplace_back(key, std::move(rendered));
  return true;
}

bool JsonObject::Has(const std::string& key) const {
  for (const auto& f : fields_) {
    if (f.first == key) return true;
  }
  return false;
}

bool JsonObject::Set(const std::string& key, double value) {
  if (!std::isfinite(value)) return Add(key, "null");
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return Add(key, buf);
}

bool JsonObject::Set(const std::string& key, uint64_t value) {
  return Add(key, std::to_string(value));
}

bool JsonObject::Set(const std::string& key, bool value) {
  return Add(key, value ? "true" : "false");
}

bool JsonObject::Set(const std::string& key, const std::string& value) {
  return Add(key, JsonQuote(value));
}

bool JsonObject::Set(const std::string& key, const char* value) {
  return Set(key, std::string(value));
}

bool JsonObject::Set(const std::string& key, const JsonObject& value) {
  return Add(key, value.Dump());
}

std::string JsonObject::Dump() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonQuote(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

}  // namespace perfbench
