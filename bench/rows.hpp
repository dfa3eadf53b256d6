// Row sink shared by the exp_* binaries that record a BENCH_*.json
// artifact: every row goes to stdout and to the artifact file in the
// working directory. Open the file with a RowFile at the top of main();
// emit() from anywhere below it.
#pragma once

#include <cstdio>
#include <string>

namespace hj::bench {

inline FILE* g_row_file = nullptr;

/// Scope of the artifact file: opened (truncated) on construction, with
/// a stderr warning when it cannot be, and closed on destruction.
class RowFile {
 public:
  explicit RowFile(const char* path) {
    g_row_file = std::fopen(path, "w");
    if (!g_row_file) std::fprintf(stderr, "warning: cannot open %s\n", path);
  }
  RowFile(const RowFile&) = delete;
  RowFile& operator=(const RowFile&) = delete;
  ~RowFile() {
    if (g_row_file) std::fclose(g_row_file);
    g_row_file = nullptr;
  }
};

/// One row to stdout and, when it is open, to the artifact file.
inline void emit(const std::string& line) {
  std::fputs(line.c_str(), stdout);
  if (g_row_file) std::fputs(line.c_str(), g_row_file);
}

}  // namespace hj::bench
