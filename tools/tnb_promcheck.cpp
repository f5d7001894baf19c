// tnb_promcheck — CLI front end of the Prometheus exposition validator in
// promcheck_lib (shared with the fuzz/property harnesses). The cli_smoke
// ctest runs it on real daemon output: tnb_streamd's --metrics-history
// snapshots and --metrics-file.
//
//   tnb_promcheck [--require SUBSTRING]... FILE...
//
// Per-file and cross-file checks are documented in promcheck_lib.hpp;
// files are given in chronological order so counter monotonicity can be
// checked across snapshots. --require asserts a substring is present in
// every file.
//
// Exit status 0 = all checks pass; 1 = violation (printed to stderr);
// 2 = usage / unreadable file.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "promcheck_lib.hpp"

int main(int argc, char** argv) {
  std::vector<std::string> files;
  std::vector<std::string> required;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--require") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "usage: tnb_promcheck [--require SUBSTRING]... FILE...\n");
        return 2;
      }
      required.push_back(argv[++i]);
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "usage: tnb_promcheck [--require SUBSTRING]... FILE...\n");
    return 2;
  }

  tnb::promcheck::Report rep;
  std::optional<tnb::promcheck::ParsedFile> prev;
  std::string prev_path;
  for (const std::string& path : files) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "tnb_promcheck: cannot read %s\n", path.c_str());
      return 2;
    }
    tnb::promcheck::ParsedFile pf = tnb::promcheck::parse(in, path, rep);
    tnb::promcheck::check_file(path, pf, rep);
    for (const std::string& r : required) {
      std::ifstream again(path);
      const std::string content((std::istreambuf_iterator<char>(again)),
                                std::istreambuf_iterator<char>());
      if (content.find(r) == std::string::npos) {
        rep.fail(path, "missing required content: " + r);
      }
    }
    if (prev.has_value()) {
      tnb::promcheck::check_monotonic(prev_path, *prev, path, pf, rep);
    }
    prev = std::move(pf);
    prev_path = path;
  }
  if (!rep.ok()) {
    for (const std::string& f : rep.failures) {
      std::fprintf(stderr, "tnb_promcheck: %s\n", f.c_str());
    }
    std::fprintf(stderr, "tnb_promcheck: %zu check(s) failed\n",
                 rep.failures.size());
    return 1;
  }
  std::printf("tnb_promcheck: %zu file(s) ok\n", files.size());
  return 0;
}
