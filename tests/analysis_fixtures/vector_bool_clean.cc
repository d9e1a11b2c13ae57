// Analysis fixture: std::vector<bool> outside the search hot path — a
// library file in src/anon/ may use it.
//
// path-role: src
// expect: vector-bool=0

int CountMerged(int clusters) {
  std::vector<bool> merged(clusters, false);
  int count = 0;
  for (int i = 0; i < clusters; ++i) {
    count += merged[i] ? 1 : 0;
  }
  return count;
}
