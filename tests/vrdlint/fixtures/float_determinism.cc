// float-determinism fixture: FMA-contractable shapes next to their
// legal rewrites. NOT compiled.
//
// vrdlint_v2_test.cc configures this file as a float-path and pins
// the two flagged line numbers, so keep the layout stable. Outside a
// float-path the file lints clean.

namespace fixture {

double MulAdd(double a, double b, double c) {
  return a * b + c;  // contractable: multiply and add at one depth
}

double CompoundMul(double acc, double w, double x) {
  acc += w * x;  // contractable compound accumulation
  return acc;
}

double Split(double a, double b, double c) {
  const double prod = a * b;  // legal: product in a named temporary
  return prod + c;
}

double ParenDepth(double a, double b, double c) {
  return a * (b + c);  // legal: the add rounds at a deeper depth
}

int IntegerMulAdd(int p, int q, int r) {
  return p * q + r;  // legal: no float operand, contraction is exact
}

// vrdlint: allow(float-determinism) -- reference path, never compared
double Allowed(double a, double b, double c) { return a * b + c; }

}  // namespace fixture
