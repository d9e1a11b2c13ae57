// Analysis fixture: raw chrono clocks outside common/ — steady_clock,
// system_clock and high_resolution_clock each fire once. The
// std::chrono::steady_clock in this comment and the string literal must
// not fire, nor may a duration type.
//
// expect: raw-clock=3

double Elapsed() {
  auto start = std::chrono::steady_clock::now();
  auto wall = std::chrono::system_clock::now();
  auto fine = std::chrono::high_resolution_clock::now();
  std::chrono::milliseconds budget(5);
  return 0.0;
}

const char* Doc() {
  return "std::chrono::steady_clock only appears inside this string";
}
