// Analysis fixture: raw clocks in their sanctioned home, common/
// (timer.h, deadline.{h,cc}), which every other timing goes through.
//
// path-role: common
// expect: raw-clock=0

double MonotonicSeconds() {
  auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(now.time_since_epoch()).count();
}

long long WallMillis() {
  auto now = std::chrono::system_clock::now();
  return 0;
}
