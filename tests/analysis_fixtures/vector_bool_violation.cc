// Analysis fixture: std::vector<bool> in the search hot path
// (src/core/, src/constraint/) fires once per mention. The
// std::vector<bool> in this comment and std::vector<int> must not fire.
//
// path-role: hot-path
// expect: vector-bool=2

int CountCovered(const std::vector<bool>& covered);

int Probe(int rows) {
  std::vector<bool> seen(rows, false);
  std::vector<int> order(rows);
  return CountCovered(seen);
}
