// Analysis fixture: C timing calls and stdio in their sanctioned home,
// common/ (the timer, the logger and the trace writer live there).
//
// path-role: common
// expect: adhoc-instrumentation=0

void LogLine(const char* text) {
  std::fprintf(stderr, "%s\n", text);
  fputs(text, stderr);
}

double NowSeconds() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return ts.tv_sec + ts.tv_nsec * 1e-9;
}
