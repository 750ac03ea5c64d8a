"""Exact bar-loss, Q*, V* and J* of a problem, in rational arithmetic from its float entries.

Every float is a rational number, so ``fractions.Fraction`` runs the backward
induction with no rounding at all: the values here belong to the problem's
tables exactly as stored. The solver's and the oracle's floats are then held
to an error bound derived from the order of their sums, not compared with
another float computation.

The bounds follow Higham, *Accuracy and Stability of Numerical Algorithms*
(2nd ed., 2002), ch. 3. With round-to-nearest and unit roundoff u = 2^-53,
each of +, -, * gives ``fl(a op b) = (a op b)(1 + δ)``, |δ| <= u, as long as
nothing underflows. A product of k factors (1 + δ_j)^±1 is ``1 + θ_k`` with
|θ_k| <= γ_k = k·u / (1 - k·u) (Lemma 3.1).

*Fixed trees.* Once every minimum has picked its estimate, a computed value
is a sum of products of table entries, and each term passes through at most
k roundings: one per product it takes part in and one per addition on its
way to the total. So it equals ``Σ_terms term · (1 + θ_k)``, within
``γ_k · Σ_terms |term|`` of the same tree summed exactly. ``Σ |term|`` is the
tree with every loss replaced by its absolute value (probabilities are not
negative), which the masses below bound.

*Minima.* Rounding to nearest is monotone, and so are sums and products by
non-negative weights. Let π be the exact optimal decisions and π̂ those the
floats picked. The computed value is at most the float tree of π (each
computed minimum is at most π's choice), so at most π's exact value plus its
γ_k term; and it is the float tree of π̂, so at least π̂'s exact value minus its
γ_k term, which is at least the exact optimum. Both directions give the
bound of the fixed trees, with the larger of the two absolute trees.

*Masses.* With m_q, m_p and m_0 the largest exact sums of a quantity row, a
transition row and the initial row, μ = max(1, m_q)·max(1, m_p) bounds the
weight one round passes to the next (m_p for the solver, m_q·m_p for the
revealed history DP), and L = max|loss|. The absolute tree of a value with t
rounds to go is then at most t·μ^t·L, by induction: m_q·L + μ·(t - 1)·μ^(t-1)·L.
"""

from fractions import Fraction

import numpy as np

U = Fraction(1, 2**53)

# a float array's entries as exact fractions, in an object array of its shape
exact = np.frompyfunc(Fraction, 1, 1)


def gamma(m):
    """Higham's γ_m = m·u / (1 - m·u), exactly."""
    return m * U / (1 - m * U)


def bar_loss(problem):
    """``bar[i-1, x, a]`` = Σ_y q_i(y | x)·loss(x, y, a), exactly, as an (n, |X|, |Yhat|) array of fractions."""
    quantities, loss = exact(problem.quantities), exact(problem.loss)
    return (quantities[..., None] * loss[None]).sum(axis=2)


def solve(problem):
    """Exact (Q*, V*) by backward induction: arrays of fractions of shapes (n, |X|, |Yhat|) and (n, |X|)."""
    q_star = bar_loss(problem)
    transitions = exact(problem.transitions)
    v_star = np.empty(q_star.shape[:2], dtype=object)
    v_star[-1] = q_star[-1].min(axis=-1)
    for k in range(problem.n - 2, -1, -1):
        q_star[k] = q_star[k] + (transitions[k] * v_star[k + 1]).sum(axis=-1)
        v_star[k] = q_star[k].min(axis=-1)
    return q_star, v_star


def minimum_loss(problem):
    """J* = Σ_x init(x)·V*_1(x), exactly."""
    return (exact(problem.init) * solve(problem)[1][0]).sum()


def _masses(problem):
    """(μ, m_0, L) of the module docstring, exactly."""
    m_q, m_p = (max([1, *(exact(table).sum(axis=-1).ravel())]) for table in (problem.quantities, problem.transitions))
    return m_q * m_p, exact(problem.init).sum(), Fraction(float(np.abs(problem.loss).max()))


def q_star_bound(problem):
    """Per round i, a bound on |Q̂_i(x, a) - Q*_i(x, a)| for the solver's ``q_star``, as an (n,) array of fractions.

    With t = n - i + 1 rounds to go, a term of Q_i from round j passes
    through the bar-loss sum (|Y| roundings), the addition of the future
    value when j < n (one), and j - i inner products Σ_x' P·V each followed
    by that addition (|X| + 1 each): k_t = |Y| + 1 + (t - 1)(|X| + 1). The
    absolute tree is at most t·μ^t·L, so the bound is γ_{k_t}·t·μ^t·L.
    """
    n, nx, ny = problem.n, len(problem.x_space), len(problem.y_space)
    mu, _, big = _masses(problem)
    bounds = [gamma(ny + 1 + (t - 1) * (nx + 1)) * t * mu**t * big for t in range(n, 0, -1)]
    return np.array(bounds, dtype=object)


def minimum_bound(problem):
    """A bound on |Ĵ - J*| for the solver's J and for ``brute_force_optimum``'s ``brute_min``, in either mode.

    *Roundings.* The solver's J takes one more inner product over the
    initial row than Q_1: at most |X| + |Y| + 1 + (n - 1)(|X| + 1)
    roundings. The history DP starts each value from the bar-loss (|Y|
    roundings) and adds its y_base·|X| successor terms one at a time
    (y_base = |Y| revealed, 1 unrevealed), each term a rounded weight
    q·p times a successor value: a term gains at most 2 + y_base·|X| per
    round, and the initial inner product adds |X|, so at most
    |X| + |Y| + |X|·|Y| + (n - 1)(2 + |X|·|Y|). Both are at most
    k = |X| + |Y| + n(2 + |X|·|Y|), and the absolute tree is at most
    m_0·n·μ^n·L: the rounding term is γ_k·max(1, m_0)·n·μ^n·L.

    *Rows that miss 1.* The revealed DP weighs its successors by q·p, so its
    exact optimum W is the solver's recursion with each successor sum scaled
    by s = Σ_y q_i(y | x), where |s - 1| <= σ, the largest miss of a quantity
    row. With D_t = max|W - V*| at t rounds to go, D_1 = 0 and
    D_t <= σ·(t - 1)·μ^t·L + μ·D_(t-1), so D_n <= σ·μ^n·L·n(n - 1)/2, and
    the initial row scales that by at most max(1, m_0). The unrevealed DP
    weighs by p alone and so has W = V*, but one bound serves all three.
    """
    n, nx, ny = problem.n, len(problem.x_space), len(problem.y_space)
    mu, m_0, big = _masses(problem)
    sigma = max(abs(row - 1) for row in exact(problem.quantities).sum(axis=-1).ravel())
    scale = max(1, m_0) * mu**n * big
    return gamma(nx + ny + n * (2 + nx * ny)) * n * scale + sigma * scale * n * (n - 1) / 2
