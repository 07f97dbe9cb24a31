"""The DOP853 step: an explicit Runge-Kutta method of order 8 with
adaptive step control.

`solve_ivp` is a port of scipy.integrate's DOP853 for a real state that
takes the same steps, right-hand-side calls and end-state bits and keeps
only the end state, so the package never imports scipy.integrate.  The
Evans transport (evans.integrate_wedge) is its one caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# DOP853 of Hairer, Norsett & Wanner (Solving Ordinary Differential
# Equations I, Sec. II.5) as scipy.integrate implements it: the tableau and
# the error weights are copied from scipy/integrate/_ivp/dop853_coefficients.py
# and the step control from rk.py and common.py (scipy, BSD-3-Clause,
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers).  The
# dense-output stages 13-16 are left out; nothing reads them.
_DOP_C = np.array([0.0,
                   0.526001519587677318785587544488e-01,
                   0.789002279381515978178381316732e-01,
                   0.118350341907227396726757197510,
                   0.281649658092772603273242802490,
                   0.333333333333333333333333333333,
                   0.25,
                   0.307692307692307692307692307692,
                   0.651282051282051282051282051282,
                   0.6,
                   0.857142857142857142857142857142,
                   1.0])
# rows 1-11 are the stages, row 12 the weights of the order-8 solution
_DOP_A = np.zeros((13, 12))
_DOP_A[1, 0] = 5.26001519587677318785587544488e-2
_DOP_A[2, 0] = 1.97250569845378994544595329183e-2
_DOP_A[2, 1] = 5.91751709536136983633785987549e-2
_DOP_A[3, 0] = 2.95875854768068491816892993775e-2
_DOP_A[3, 2] = 8.87627564304205475450678981324e-2
_DOP_A[4, 0] = 2.41365134159266685502369798665e-1
_DOP_A[4, 2] = -8.84549479328286085344864962717e-1
_DOP_A[4, 3] = 9.24834003261792003115737966543e-1
_DOP_A[5, 0] = 3.7037037037037037037037037037e-2
_DOP_A[5, 3] = 1.70828608729473871279604482173e-1
_DOP_A[5, 4] = 1.25467687566822425016691814123e-1
_DOP_A[6, 0] = 3.7109375e-2
_DOP_A[6, 3] = 1.70252211019544039314978060272e-1
_DOP_A[6, 4] = 6.02165389804559606850219397283e-2
_DOP_A[6, 5] = -1.7578125e-2
_DOP_A[7, 0] = 3.70920001185047927108779319836e-2
_DOP_A[7, 3] = 1.70383925712239993810214054705e-1
_DOP_A[7, 4] = 1.07262030446373284651809199168e-1
_DOP_A[7, 5] = -1.53194377486244017527936158236e-2
_DOP_A[7, 6] = 8.27378916381402288758473766002e-3
_DOP_A[8, 0] = 6.24110958716075717114429577812e-1
_DOP_A[8, 3] = -3.36089262944694129406857109825
_DOP_A[8, 4] = -8.68219346841726006818189891453e-1
_DOP_A[8, 5] = 2.75920996994467083049415600797e1
_DOP_A[8, 6] = 2.01540675504778934086186788979e1
_DOP_A[8, 7] = -4.34898841810699588477366255144e1
_DOP_A[9, 0] = 4.77662536438264365890433908527e-1
_DOP_A[9, 3] = -2.48811461997166764192642586468
_DOP_A[9, 4] = -5.90290826836842996371446475743e-1
_DOP_A[9, 5] = 2.12300514481811942347288949897e1
_DOP_A[9, 6] = 1.52792336328824235832596922938e1
_DOP_A[9, 7] = -3.32882109689848629194453265587e1
_DOP_A[9, 8] = -2.03312017085086261358222928593e-2
_DOP_A[10, 0] = -9.3714243008598732571704021658e-1
_DOP_A[10, 3] = 5.18637242884406370830023853209
_DOP_A[10, 4] = 1.09143734899672957818500254654
_DOP_A[10, 5] = -8.14978701074692612513997267357
_DOP_A[10, 6] = -1.85200656599969598641566180701e1
_DOP_A[10, 7] = 2.27394870993505042818970056734e1
_DOP_A[10, 8] = 2.49360555267965238987089396762
_DOP_A[10, 9] = -3.0467644718982195003823669022
_DOP_A[11, 0] = 2.27331014751653820792359768449
_DOP_A[11, 3] = -1.05344954667372501984066689879e1
_DOP_A[11, 4] = -2.00087205822486249909675718444
_DOP_A[11, 5] = -1.79589318631187989172765950534e1
_DOP_A[11, 6] = 2.79488845294199600508499808837e1
_DOP_A[11, 7] = -2.85899827713502369474065508674
_DOP_A[11, 8] = -8.87285693353062954433549289258
_DOP_A[11, 9] = 1.23605671757943030647266201528e1
_DOP_A[11, 10] = 6.43392746015763530355970484046e-1
_DOP_A[12, 0] = 5.42937341165687622380535766363e-2
_DOP_A[12, 5] = 4.45031289275240888144113950566
_DOP_A[12, 6] = 1.89151789931450038304281599044
_DOP_A[12, 7] = -5.8012039600105847814672114227
_DOP_A[12, 8] = 3.1116436695781989440891606237e-1
_DOP_A[12, 9] = -1.52160949662516078556178806805e-1
_DOP_A[12, 10] = 2.01365400804030348374776537501e-1
_DOP_A[12, 11] = 4.47106157277725905176885569043e-2
_DOP_B = _DOP_A[12]
_DOP_E3 = np.zeros(13)
_DOP_E3[:-1] = _DOP_B
_DOP_E3[0] -= 0.244094488188976377952755905512
_DOP_E3[8] -= 0.733846688281611857341361741547
_DOP_E3[11] -= 0.220588235294117647058823529412e-1
_DOP_E5 = np.zeros(13)
_DOP_E5[0] = 0.1312004499419488073250102996e-1
_DOP_E5[5] = -0.1225156446376204440720569753e+1
_DOP_E5[6] = -0.4957589496572501915214079952
_DOP_E5[7] = 0.1664377182454986536961530415e+1
_DOP_E5[8] = -0.3503288487499736816886487290
_DOP_E5[9] = 0.3341791187130174790297318841
_DOP_E5[10] = 0.8192320648511571246570742613e-1
_DOP_E5[11] = -0.2235530786388629525884427845e-1
SAFETY = 0.9       # factor on the step predicted from the error estimate
MIN_FACTOR = 0.2   # largest decrease of the step in one rejection
MAX_FACTOR = 10.0  # largest increase of the step after an acceptance


@dataclass(frozen=True)
class IvpResult:
    """What solve_ivp returns: every accepted t and the state y at the last."""

    t: np.ndarray
    y: np.ndarray
    nfev: int
    success: bool
    message: str


def _rms(z) -> float:
    return np.linalg.norm(z) / z.size ** 0.5


def solve_ivp(fun, t_span, y0, rtol: float, atol: float) -> IvpResult:
    """Integrate the real system y' = fun(t, y) over t_span by DOP853.

    The steps, right-hand-side calls and end-state bits are those of
    scipy.integrate.solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol,
    atol=atol): the same initial-step rule (error order 7), combined E5/E3
    error norm and step-factor limits.  Only the end state is kept.  A
    step size that falls below ten spacings of the floating-point numbers
    at t ends the integration with success False at the last accepted t.
    """
    t, t_bound = map(float, t_span)
    y = np.asarray(y0, dtype=float)
    nfev = 0

    def f_at(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(t, y), dtype=float)

    direction = np.sign(t_bound - t) if t_bound != t else 1
    f = f_at(t, y)
    # initial step (Hairer, Norsett & Wanner, Sec. II.4)
    length = abs(t_bound - t)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, length)
    f1 = f_at(t + h0 * direction, y + h0 * direction * f)
    d2 = _rms((f1 - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, length)

    K = np.empty((13, y.size))
    ts = [t]
    message = ("The solver successfully reached the end of the "
               "integration interval.")
    while t != t_bound:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                message = ("Required step size is less than spacing "
                           "between numbers.")
                return IvpResult(np.array(ts), y, nfev, False, message)
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)

            K[0] = f
            for s in range(1, 12):
                dy = np.dot(K[:s].T, _DOP_A[s, :s]) * h
                K[s] = f_at(t + _DOP_C[s] * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, _DOP_B)
            f_new = f_at(t + h, y_new)
            K[-1] = f_new

            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = np.linalg.norm(np.dot(K.T, _DOP_E5) / scale) ** 2
            err3 = np.linalg.norm(np.dot(K.T, _DOP_E3) / scale) ** 2
            if err5 == 0 and err3 == 0:
                error = 0.0
            else:
                error = h_abs * err5 / np.sqrt((err5 + 0.01 * err3)
                                               * scale.size)
            if error < 1:
                factor = (MAX_FACTOR if error == 0 else
                          min(MAX_FACTOR, SAFETY * error ** (-1 / 8)))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error ** (-1 / 8))
            rejected = True
        t, y, f = t_new, y_new, f_new
        ts.append(t)
    return IvpResult(np.array(ts), y, nfev, True, message)
