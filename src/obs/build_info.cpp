#include "obs/build_info.hpp"

#include "netbase/json.hpp"

// The cmake obs target defines ZS_GIT_SHA / ZS_BUILD_TYPE /
// ZS_SANITIZE_FLAGS for this translation unit; default to "unknown" /
// empty so a bare compile still links.
#ifndef ZS_GIT_SHA
#define ZS_GIT_SHA "unknown"
#endif
#ifndef ZS_BUILD_TYPE
#define ZS_BUILD_TYPE "unknown"
#endif
#ifndef ZS_SANITIZE_FLAGS
#define ZS_SANITIZE_FLAGS ""
#endif

namespace zombiescope::obs {

namespace {

std::string compiler_string() {
#if defined(__clang__)
  return "clang " + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." +
         std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." + std::to_string(__GNUC_MINOR__) +
         "." + std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

std::string arch_string() {
#if defined(__x86_64__)
  return "x86_64";
#elif defined(__aarch64__)
  return "aarch64";
#else
  return "unknown";
#endif
}

}  // namespace

const BuildInfo& build_info() {
  static const BuildInfo info = [] {
    BuildInfo b;
    b.git_sha = ZS_GIT_SHA;
    b.compiler = compiler_string();
    b.build_type = ZS_BUILD_TYPE;
    b.sanitizer = ZS_SANITIZE_FLAGS;
    b.arch = arch_string();
    return b;
  }();
  return info;
}

std::string build_info_json() {
  const BuildInfo& b = build_info();
  return "{\"git_sha\": \"" + netbase::json_escape(b.git_sha) + "\", \"compiler\": \"" +
         netbase::json_escape(b.compiler) + "\", \"build_type\": \"" +
         netbase::json_escape(b.build_type) + "\", \"sanitizer\": \"" +
         netbase::json_escape(b.sanitizer) + "\", \"arch\": \"" + netbase::json_escape(b.arch) +
         "\"}";
}

std::string identity_line(std::string_view tool) {
  const BuildInfo& b = build_info();
  std::string line;
  line += tool;
  line += " (zombiescope) ";
  line += b.git_sha;
  line += ' ';
  line += b.compiler;
  line += ' ';
  line += b.build_type;
  line += ' ';
  line += b.arch;
  if (!b.sanitizer.empty()) {
    line += " sanitizer=";
    line += b.sanitizer;
  }
  return line;
}

bool builds_comparable(const BuildInfo& a, const BuildInfo& b) {
  return a.compiler == b.compiler && a.build_type == b.build_type &&
         a.sanitizer == b.sanitizer && a.arch == b.arch;
}

}  // namespace zombiescope::obs
