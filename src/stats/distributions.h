// Probability distribution functions needed by the hypothesis tests:
// standard normal CDF, chi-squared CDF (via the regularized lower incomplete
// gamma function), and Student-t p-values (via the regularized incomplete
// beta function).
//
// Accuracy targets are the needs of the detectors (p-values compared against
// 0.01/0.05-style thresholds), not scientific libraries: everything here is
// good to ~1e-8 or better over the ranges the detectors use.
#ifndef FBDETECT_SRC_STATS_DISTRIBUTIONS_H_
#define FBDETECT_SRC_STATS_DISTRIBUTIONS_H_

namespace fbdetect {

// Standard normal cumulative distribution function.
double NormalCdf(double z);

// Regularized lower incomplete gamma function P(a, x), a > 0, x >= 0.
double RegularizedGammaP(double a, double x);

// Chi-squared CDF with k degrees of freedom.
double ChiSquaredCdf(double x, double k);

// Upper-tail p-value for a chi-squared statistic.
double ChiSquaredSurvival(double x, double k);

// Regularized incomplete beta function I_x(a, b) for a, b > 0, x in [0, 1].
double RegularizedIncompleteBeta(double a, double b, double x);

// Two-sided p-value of a t statistic — exact via the incomplete beta
// function: p = I_{df/(df+t^2)}(df/2, 1/2).
double StudentTSurvivalTwoSided(double t, double degrees_of_freedom);

}  // namespace fbdetect

#endif  // FBDETECT_SRC_STATS_DISTRIBUTIONS_H_
