#ifndef PERFBENCH_JSON_H_
#define PERFBENCH_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// A JSON object built in insertion order. Setting a key twice is a
/// programming error that would silently publish two values for one metric,
/// so Set refuses it: it returns false, leaves the object unchanged, and
/// the object remembers the offending key (duplicate_key()) so the caller
/// can fail the run.
class JsonObject {
 public:
  bool Set(const std::string& key, double value);
  bool Set(const std::string& key, uint64_t value);
  bool Set(const std::string& key, bool value);
  bool Set(const std::string& key, const std::string& value);
  bool Set(const std::string& key, const char* value);
  bool Set(const std::string& key, const JsonObject& value);

  /// The first key Set refused, or empty when none was.
  const std::string& duplicate_key() const { return duplicate_key_; }

  /// Compact one-line rendering. Doubles print with 17 significant digits
  /// (exact round trip); non-finite doubles render as null.
  std::string Dump() const;

 private:
  bool Has(const std::string& key) const;
  bool Add(const std::string& key, std::string rendered);

  std::vector<std::pair<std::string, std::string>> fields_;
  std::string duplicate_key_;
};

/// `s` as a quoted JSON string literal.
std::string JsonQuote(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_JSON_H_
