// Shared helpers for the paper-reproduction benchmark binaries: flag
// parsing and table formatting. Every bench prints the paper's reported
// numbers next to the measured ones so EXPERIMENTS.md can quote the output
// directly.
#ifndef XFTL_BENCH_BENCH_UTIL_H_
#define XFTL_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>

namespace xftl::bench {

// Parses "--name=value" style flags; returns `def` when absent.
inline double FlagDouble(int argc, char** argv, const char* name, double def) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atof(argv[i] + prefix.size());
    }
  }
  return def;
}

inline long FlagInt(int argc, char** argv, const char* name, long def) {
  return long(FlagDouble(argc, argv, name, double(def)));
}

inline bool FlagBool(int argc, char** argv, const char* name) {
  std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

inline std::string FlagString(int argc, char** argv, const char* name,
                              const std::string& def) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return def;
}

// True if string flag `name` holds one of `allowed`; otherwise says so on
// stderr, so a mistyped value fails instead of quietly picking a default.
inline bool FlagOneOf(const char* name, const std::string& value,
                      std::initializer_list<const char*> allowed) {
  std::string list;
  for (const char* a : allowed) {
    if (value == a) return true;
    list += (list.empty() ? "" : "|") + std::string(a);
  }
  std::fprintf(stderr, "--%s=%s: must be one of %s\n", name, value.c_str(),
               list.c_str());
  return false;
}

inline void PrintHeader(const char* title) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s\n", title);
  std::printf("==============================================================="
              "=================\n");
}

// Accumulates one flat JSON object and prints it as a single line, so a
// bench run with --json emits JSON Lines that scripts can consume without
// scraping the human-readable tables.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, uint64_t v) {
    return AddRaw(key, std::to_string(v));
  }
  JsonObject& Add(const std::string& key, long v) {
    return AddRaw(key, std::to_string(v));
  }
  JsonObject& Add(const std::string& key, double v) {
    // NaN/inf (e.g. a ratio over an empty interval) would render as bare
    // `nan`, which is not JSON; emit null so consumers see a typed absence.
    if (std::isnan(v) || std::isinf(v)) return AddRaw(key, "null");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return AddRaw(key, buf);
  }
  JsonObject& Add(const std::string& key, bool v) {
    return AddRaw(key, v ? "true" : "false");
  }
  JsonObject& Add(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    quoted += '"';
    return AddRaw(key, quoted);
  }
  JsonObject& Add(const std::string& key, const char* v) {
    return Add(key, std::string(v));
  }

  void Print() const { std::printf("%s\n", ToString().c_str()); }
  std::string ToString() const { return "{" + body_ + "}"; }

 private:
  JsonObject& AddRaw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + value;
    return *this;
  }
  std::string body_;
};

}  // namespace xftl::bench

#endif  // XFTL_BENCH_BENCH_UTIL_H_
