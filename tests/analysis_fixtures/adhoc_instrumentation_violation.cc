// Analysis fixture: ad-hoc timing and printing in library code. Each of
// gettimeofday, clock_gettime, timespec_get, std::clock(), printf,
// fprintf, puts and fputs fires once. snprintf, a member call
// logger.printf, and the printf( in this comment and the string literal
// must not fire.
//
// expect: adhoc-instrumentation=8

struct Logger;

void Probe(Logger& logger, char* buffer) {
  struct timeval tv;
  gettimeofday(&tv, nullptr);
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  timespec_get(&ts, TIME_UTC);
  long ticks = std::clock();
  printf("rows %d\n", 3);
  std::fprintf(stderr, "phase done\n");
  puts("done");
  fputs("done", stderr);
  snprintf(buffer, 8, "%d", 1);
  logger.printf("not stdio");
}

const char* Doc() {
  return "printf(\"x\") only appears inside this string literal";
}
