#include "src/stats/distributions.h"

#include <cmath>

#include "src/common/check.h"

namespace fbdetect {
namespace {

// Lanczos approximation of log Gamma(x), x > 0.
double LogGamma(double x) {
  static const double kCoefficients[] = {
      76.18009172947146,  -86.50532032941677,    24.01409824083091,
      -1.231739572450155, 0.1208650973866179e-2, -0.5395239384953e-5,
  };
  double y = x;
  double tmp = x + 5.5;
  tmp -= (x + 0.5) * std::log(tmp);
  double series = 1.000000000190015;
  for (double coefficient : kCoefficients) {
    series += coefficient / ++y;
  }
  return -tmp + std::log(2.5066282746310005 * series / x);
}

// Series representation of P(a, x), converges fast for x < a + 1.
double GammaPSeries(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double term = sum;
  for (int i = 0; i < 500; ++i) {
    ++ap;
    term *= x / ap;
    sum += term;
    if (std::fabs(term) < std::fabs(sum) * 1e-15) {
      break;
    }
  }
  return sum * std::exp(-x + a * std::log(x) - LogGamma(a));
}

// Continued fraction for Q(a, x) = 1 - P(a, x), converges fast for x >= a + 1.
double GammaQContinuedFraction(double a, double x) {
  const double kTiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kTiny) {
      d = kTiny;
    }
    c = b + an / c;
    if (std::fabs(c) < kTiny) {
      c = kTiny;
    }
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < 1e-15) {
      break;
    }
  }
  return std::exp(-x + a * std::log(x) - LogGamma(a)) * h;
}

}  // namespace

double NormalCdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

double RegularizedGammaP(double a, double x) {
  FBD_CHECK(a > 0.0);
  FBD_CHECK(x >= 0.0);
  if (x == 0.0) {
    return 0.0;
  }
  if (x < a + 1.0) {
    return GammaPSeries(a, x);
  }
  return 1.0 - GammaQContinuedFraction(a, x);
}

double ChiSquaredCdf(double x, double k) {
  if (x <= 0.0) {
    return 0.0;
  }
  return RegularizedGammaP(k / 2.0, x / 2.0);
}

double ChiSquaredSurvival(double x, double k) { return 1.0 - ChiSquaredCdf(x, k); }

double RegularizedIncompleteBeta(double a, double b, double x) {
  FBD_CHECK(a > 0.0 && b > 0.0);
  FBD_CHECK(x >= 0.0 && x <= 1.0);
  if (x == 0.0 || x == 1.0) {
    return x;
  }
  // Lentz continued fraction; converges fastest for x < (a+1)/(a+b+2),
  // otherwise use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a).
  if (x > (a + 1.0) / (a + b + 2.0)) {
    return 1.0 - RegularizedIncompleteBeta(b, a, 1.0 - x);
  }
  const double log_front =
      a * std::log(x) + b * std::log(1.0 - x) - std::log(a) -
      (LogGamma(a) + LogGamma(b) - LogGamma(a + b));
  const double kTiny = 1e-300;
  double c = 1.0;
  double d = 1.0 - (a + b) * x / (a + 1.0);
  if (std::fabs(d) < kTiny) {
    d = kTiny;
  }
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= 300; ++m) {
    const double dm = static_cast<double>(m);
    // Even step.
    double numerator = dm * (b - dm) * x / ((a + 2.0 * dm - 1.0) * (a + 2.0 * dm));
    d = 1.0 + numerator * d;
    if (std::fabs(d) < kTiny) {
      d = kTiny;
    }
    c = 1.0 + numerator / c;
    if (std::fabs(c) < kTiny) {
      c = kTiny;
    }
    d = 1.0 / d;
    h *= d * c;
    // Odd step.
    numerator = -(a + dm) * (a + b + dm) * x / ((a + 2.0 * dm) * (a + 2.0 * dm + 1.0));
    d = 1.0 + numerator * d;
    if (std::fabs(d) < kTiny) {
      d = kTiny;
    }
    c = 1.0 + numerator / c;
    if (std::fabs(c) < kTiny) {
      c = kTiny;
    }
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < 1e-15) {
      break;
    }
  }
  return std::exp(log_front) * h;
}

double StudentTSurvivalTwoSided(double t, double degrees_of_freedom) {
  FBD_CHECK(degrees_of_freedom >= 1.0);
  if (!std::isfinite(t)) {
    return 0.0;
  }
  const double df = degrees_of_freedom;
  const double x = df / (df + t * t);
  return RegularizedIncompleteBeta(df / 2.0, 0.5, x);
}

}  // namespace fbdetect
