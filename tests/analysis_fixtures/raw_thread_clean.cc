// Analysis fixture: raw threads in their sanctioned home,
// common/parallel.{h,cc}, where the pool's workers start.
//
// path-role: parallel-home
// expect: raw-thread=0

void WorkerLoop();

void StartWorkers(int count) {
  for (int i = 0; i < count; ++i) {
    std::thread worker(WorkerLoop);
    worker.detach();
  }
}
