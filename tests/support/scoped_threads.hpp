#pragma once
// Pins the campaign pool width for one scope through BISRAM_THREADS (the
// environment wins over every programmatic override) and restores the
// previous value on exit.

#include <cstdlib>
#include <string>

namespace bisram::test_support {

class ScopedThreads {
 public:
  explicit ScopedThreads(int n) {
    if (const char* v = std::getenv("BISRAM_THREADS")) {
      had_ = true;
      saved_ = v;
    }
    setenv("BISRAM_THREADS", std::to_string(n).c_str(), 1);
  }
  ~ScopedThreads() {
    if (had_)
      setenv("BISRAM_THREADS", saved_.c_str(), 1);
    else
      unsetenv("BISRAM_THREADS");
  }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  bool had_ = false;
  std::string saved_;
};

}  // namespace bisram::test_support
