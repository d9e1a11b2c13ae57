// Analysis fixture: raw threading primitives outside the parallel layer —
// std::thread, std::jthread and std::async each fire once. The
// std::thread in this comment, the one in the string literal and
// std::this_thread must not fire.
//
// expect: raw-thread=3

void Work();

void Spawn() {
  std::thread worker(Work);
  worker.join();
}

void SpawnJoining() {
  std::jthread worker(Work);
}

void SpawnAsync() {
  auto done = std::async(Work);
  std::this_thread::yield();
}

const char* Doc() {
  return "std::thread only appears inside this string literal";
}
