"""The DOP853 Runge-Kutta stepper with dense output, on numpy alone.

DOP853 is the explicit Dormand-Prince 8(5,3) pair with its degree-7
continuous extension (Hairer, Norsett & Wanner, *Solving Ordinary
Differential Equations I*, 2nd ed., Sec. II.4-II.10). `DOP853` steps it
with scipy's step control, operation for operation, so a run gives the
same accepted times, states, right-hand-side count and dense output as
`scipy.integrate.DOP853` bit for bit, without importing scipy.integrate:

- the first step from the Sec. II.4 rule (error order 7);
- step factors SAFETY * err^(-1/8), SAFETY = 0.9, bounded to [0.2, 10],
  and no growth on the step after a rejection;
- the combined error norm |h| |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) n)
  with e5, e3 the E5 and E3 estimates over atol + rtol max(|y|, |y_new|);
- three extra stages for the interpolant, built only on request.

The tableau (C, A, B, E3, E5, D) is copied, literal for literal, from
scipy/integrate/_ivp/dop853_coefficients.py (scipy 1.17), which takes
it from Hairer's dop853.f. That file is distributed under this notice:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

import math

import numpy as np

N_STAGES = 12
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
ERROR_EXPONENT = -1 / 8  # -1 / (error order 7 + 1)

C = np.array([0.0,
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
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

A = np.zeros((16, 16))
A[1, 0] = 5.26001519587677318785587544488e-2

A[2, 0] = 1.97250569845378994544595329183e-2
A[2, 1] = 5.91751709536136983633785987549e-2

A[3, 0] = 2.95875854768068491816892993775e-2
A[3, 2] = 8.87627564304205475450678981324e-2

A[4, 0] = 2.41365134159266685502369798665e-1
A[4, 2] = -8.84549479328286085344864962717e-1
A[4, 3] = 9.24834003261792003115737966543e-1

A[5, 0] = 3.7037037037037037037037037037e-2
A[5, 3] = 1.70828608729473871279604482173e-1
A[5, 4] = 1.25467687566822425016691814123e-1

A[6, 0] = 3.7109375e-2
A[6, 3] = 1.70252211019544039314978060272e-1
A[6, 4] = 6.02165389804559606850219397283e-2
A[6, 5] = -1.7578125e-2

A[7, 0] = 3.70920001185047927108779319836e-2
A[7, 3] = 1.70383925712239993810214054705e-1
A[7, 4] = 1.07262030446373284651809199168e-1
A[7, 5] = -1.53194377486244017527936158236e-2
A[7, 6] = 8.27378916381402288758473766002e-3

A[8, 0] = 6.24110958716075717114429577812e-1
A[8, 3] = -3.36089262944694129406857109825
A[8, 4] = -8.68219346841726006818189891453e-1
A[8, 5] = 2.75920996994467083049415600797e1
A[8, 6] = 2.01540675504778934086186788979e1
A[8, 7] = -4.34898841810699588477366255144e1

A[9, 0] = 4.77662536438264365890433908527e-1
A[9, 3] = -2.48811461997166764192642586468
A[9, 4] = -5.90290826836842996371446475743e-1
A[9, 5] = 2.12300514481811942347288949897e1
A[9, 6] = 1.52792336328824235832596922938e1
A[9, 7] = -3.32882109689848629194453265587e1
A[9, 8] = -2.03312017085086261358222928593e-2

A[10, 0] = -9.3714243008598732571704021658e-1
A[10, 3] = 5.18637242884406370830023853209
A[10, 4] = 1.09143734899672957818500254654
A[10, 5] = -8.14978701074692612513997267357
A[10, 6] = -1.85200656599969598641566180701e1
A[10, 7] = 2.27394870993505042818970056734e1
A[10, 8] = 2.49360555267965238987089396762
A[10, 9] = -3.0467644718982195003823669022

A[11, 0] = 2.27331014751653820792359768449
A[11, 3] = -1.05344954667372501984066689879e1
A[11, 4] = -2.00087205822486249909675718444
A[11, 5] = -1.79589318631187989172765950534e1
A[11, 6] = 2.79488845294199600508499808837e1
A[11, 7] = -2.85899827713502369474065508674
A[11, 8] = -8.87285693353062954433549289258
A[11, 9] = 1.23605671757943030647266201528e1
A[11, 10] = 6.43392746015763530355970484046e-1

A[12, 0] = 5.42937341165687622380535766363e-2
A[12, 5] = 4.45031289275240888144113950566
A[12, 6] = 1.89151789931450038304281599044
A[12, 7] = -5.8012039600105847814672114227
A[12, 8] = 3.1116436695781989440891606237e-1
A[12, 9] = -1.52160949662516078556178806805e-1
A[12, 10] = 2.01365400804030348374776537501e-1
A[12, 11] = 4.47106157277725905176885569043e-2

A[13, 0] = 5.61675022830479523392909219681e-2
A[13, 6] = 2.53500210216624811088794765333e-1
A[13, 7] = -2.46239037470802489917441475441e-1
A[13, 8] = -1.24191423263816360469010140626e-1
A[13, 9] = 1.5329179827876569731206322685e-1
A[13, 10] = 8.20105229563468988491666602057e-3
A[13, 11] = 7.56789766054569976138603589584e-3
A[13, 12] = -8.298e-3

A[14, 0] = 3.18346481635021405060768473261e-2
A[14, 5] = 2.83009096723667755288322961402e-2
A[14, 6] = 5.35419883074385676223797384372e-2
A[14, 7] = -5.49237485713909884646569340306e-2
A[14, 10] = -1.08347328697249322858509316994e-4
A[14, 11] = 3.82571090835658412954920192323e-4
A[14, 12] = -3.40465008687404560802977114492e-4
A[14, 13] = 1.41312443674632500278074618366e-1

A[15, 0] = -4.28896301583791923408573538692e-1
A[15, 5] = -4.69762141536116384314449447206
A[15, 6] = 7.68342119606259904184240953878
A[15, 7] = 4.06898981839711007970213554331
A[15, 8] = 3.56727187455281109270669543021e-1
A[15, 12] = -1.39902416515901462129418009734e-3
A[15, 13] = 2.9475147891527723389556272149
A[15, 14] = -9.15095847217987001081870187138

B = A[N_STAGES, :N_STAGES]

E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

# The interpolant's coefficients of degree 4 to 7; the first three follow from the step ends.
D = np.zeros((4, 16))
D[0, 0] = -0.84289382761090128651353491142e+1
D[0, 5] = 0.56671495351937776962531783590
D[0, 6] = -0.30689499459498916912797304727e+1
D[0, 7] = 0.23846676565120698287728149680e+1
D[0, 8] = 0.21170345824450282767155149946e+1
D[0, 9] = -0.87139158377797299206789907490
D[0, 10] = 0.22404374302607882758541771650e+1
D[0, 11] = 0.63157877876946881815570249290
D[0, 12] = -0.88990336451333310820698117400e-1
D[0, 13] = 0.18148505520854727256656404962e+2
D[0, 14] = -0.91946323924783554000451984436e+1
D[0, 15] = -0.44360363875948939664310572000e+1

D[1, 0] = 0.10427508642579134603413151009e+2
D[1, 5] = 0.24228349177525818288430175319e+3
D[1, 6] = 0.16520045171727028198505394887e+3
D[1, 7] = -0.37454675472269020279518312152e+3
D[1, 8] = -0.22113666853125306036270938578e+2
D[1, 9] = 0.77334326684722638389603898808e+1
D[1, 10] = -0.30674084731089398182061213626e+2
D[1, 11] = -0.93321305264302278729567221706e+1
D[1, 12] = 0.15697238121770843886131091075e+2
D[1, 13] = -0.31139403219565177677282850411e+2
D[1, 14] = -0.93529243588444783865713862664e+1
D[1, 15] = 0.35816841486394083752465898540e+2

D[2, 0] = 0.19985053242002433820987653617e+2
D[2, 5] = -0.38703730874935176555105901742e+3
D[2, 6] = -0.18917813819516756882830838328e+3
D[2, 7] = 0.52780815920542364900561016686e+3
D[2, 8] = -0.11573902539959630126141871134e+2
D[2, 9] = 0.68812326946963000169666922661e+1
D[2, 10] = -0.10006050966910838403183860980e+1
D[2, 11] = 0.77771377980534432092869265740
D[2, 12] = -0.27782057523535084065932004339e+1
D[2, 13] = -0.60196695231264120758267380846e+2
D[2, 14] = 0.84320405506677161018159903784e+2
D[2, 15] = 0.11992291136182789328035130030e+2

D[3, 0] = -0.25693933462703749003312586129e+2
D[3, 5] = -0.15418974869023643374053993627e+3
D[3, 6] = -0.23152937917604549567536039109e+3
D[3, 7] = 0.35763911791061412378285349910e+3
D[3, 8] = 0.93405324183624310003907691704e+2
D[3, 9] = -0.37458323136451633156875139351e+2
D[3, 10] = 0.10409964950896230045147246184e+3
D[3, 11] = 0.29840293426660503123344363579e+2
D[3, 12] = -0.43533456590011143754432175058e+2
D[3, 13] = 0.96324553959188282948394950600e+2
D[3, 14] = -0.39177261675615439165231486172e+2
D[3, 15] = -0.14972683625798562581422125276e+3

# The tableau as complex, converted once: np.dot casts a real operand against
# the complex stages to this anyway, and makes the same complex gemv of it.
# ROWS[s] is row s of A up to stage s; row 12 is B, which gives the new state,
# and rows 13 to 15 give the interpolant's extra stages.
ROWS = [A[s, :s].astype(complex) for s in range(16)]
E3_ROW, E5_ROW, D_ROWS = E3.astype(complex), E5.astype(complex), D.astype(complex)


def _rms(x: np.ndarray) -> float:
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag)) / x.size ** 0.5  # np.linalg.norm's sum


def _error_norm_2(K: np.ndarray, row: np.ndarray, scale: np.ndarray) -> float:
    # |K^T row / scale|^2, squared from np.linalg.norm of the complex vector as numpy computes it.
    e = np.dot(K.T, row)
    e /= scale
    return math.sqrt(e.real.dot(e.real) + e.imag.dot(e.imag)) ** 2


class DOP853:
    """Integrates y' = fun(t, y) from t0 toward t_bound, one accepted step per `step()`.

    `t`, `y`, `status` ("running", "finished" or "failed") and `nfev`
    (right-hand-side calls, the start and first-step calls included)
    read as on scipy's solver. y is complex and 1-D.

    `fun` is called three ways. `fun(t, y)` returns y'(t) as a new complex
    array of y's shape; it gives the start derivative and the first-step
    trial. A step attempt (12 stages) and a dense output (3) instead name
    all their stage times at once, as soon as h is known: `fun.at(times)`
    readies the equation at each time (a step's time-only work, done once
    for all its stages), and then `fun.stage(i, y, out)`, called once per
    time in order, writes y'(times[i]) at y into out. Each stage counts as
    one call in `nfev`, as on scipy's solver.
    """

    def __init__(self, fun, t0, y0, t_bound, *, rtol, atol):
        self.y = np.asarray(y0, dtype=complex)
        if not np.isfinite(self.y).all():
            raise ValueError("All components of the initial state `y0` must be finite.")
        self._rhs, self._rtol, self._atol = fun, rtol, atol
        self.t, self.t_old, self.t_bound = t0, None, t_bound
        self._direction = math.copysign(1.0, t_bound - t0) if t_bound != t0 else 1.0
        self.status, self.nfev = "running", 0
        self._f = self._fun(t0, self.y)
        self._h_abs = self._first_step()
        self._k = np.empty((16, self.y.size), dtype=self.y.dtype)  # the stages, the interpolant's three last
        self._k_before = [self._k[:s].T for s in range(16)]  # the stages before stage s, as columns

    def _fun(self, t, y):
        self.nfev += 1
        return self._rhs(t, y)

    def _stages(self, t, h, y, first, last) -> np.ndarray:
        # Stages first .. last - 1 of the step of length h from y at t, each at
        # t + C[s] h and y + h sum_r A[s, r] K[r]; returns the last stage's state.
        K, ys, stage = self._k, np.empty_like(y), self._rhs.stage
        self._rhs.at(t + C[first:last] * h)
        h = np.array(h, dtype=complex)  # the complex h numpy multiplies by, converted once
        for i, s in enumerate(range(first, last)):
            np.dot(self._k_before[s], ROWS[s], out=ys)
            ys *= h
            ys += y
            stage(i, ys, K[s])
        self.nfev += last - first
        return ys

    def _first_step(self) -> float:
        # Hairer, Norsett & Wanner, Sec. II.4, as scipy's select_initial_step with no max_step.
        t0, y0, f0 = self.t, self.y, self._f
        interval_length = abs(self.t_bound - t0)
        if interval_length == 0.0:
            return 0.0
        scale = self._atol + np.abs(y0) * self._rtol
        d0 = _rms(y0 / scale)
        d1 = _rms(f0 / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        f1 = self._fun(t0 + h0 * self._direction, y0 + h0 * self._direction * f0)
        d2 = _rms((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 8)
        return min(100 * h0, h1, interval_length)

    def step(self) -> None:
        if self.status != "running":
            raise RuntimeError("Attempt to step on a failed or finished solver.")
        t, y, K = self.t, self.y, self._k[: N_STAGES + 1]
        if t == self.t_bound:
            self.t_old, self.status = t, "finished"
            return
        min_step = 10 * abs(math.nextafter(t, self._direction * math.inf) - t)
        h_abs = max(self._h_abs, min_step)
        rejected = False
        K[0] = self._f
        while True:
            if h_abs < min_step:
                self.status = "failed"
                return
            t_new = t + h_abs * self._direction
            if self._direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = abs(h)
            # Stage 12 sits at t + h, on the new state y_new (B is row 12 of A), and is f_new.
            y_new = self._stages(t, h, y, 1, N_STAGES + 1)
            scale = self._atol + np.maximum(np.abs(y), np.abs(y_new)) * self._rtol
            err5_norm_2, err3_norm_2 = _error_norm_2(K, E5_ROW, scale), _error_norm_2(K, E3_ROW, scale)
            if err5_norm_2 == 0 and err3_norm_2 == 0:
                error_norm = 0.0
            else:
                denom = err5_norm_2 + 0.01 * err3_norm_2
                error_norm = h_abs * err5_norm_2 / math.sqrt(denom * scale.size)
            if error_norm < 1:
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
            rejected = True
        factor = MAX_FACTOR if error_norm == 0 else min(MAX_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
        self._h_abs = h_abs * (min(1, factor) if rejected else factor)
        self._h, self._y_old, self.t_old = h, y, t
        # f_new stays in K[12]: the next step copies it to K[0] before any stage.
        self.t, self.y, self._f = t_new, y_new, K[-1]
        if self._direction * (t_new - self.t_bound) >= 0:
            self.status = "finished"

    def dense_output(self) -> "Interpolant":
        """The degree-7 interpolant over the last step; three more right-hand-side calls."""
        if self.t_old is None:
            raise RuntimeError("Dense output is available after a successful step was made.")
        if self.t == self.t_old:  # a run from t_bound itself, which took no step
            return Interpolant(self.t, 1.0, self.y, np.empty((0, self.y.size), self.y.dtype))
        K, h, y_old = self._k, self._h, self._y_old
        self._stages(self.t_old, h, y_old, N_STAGES + 1, 16)
        F = np.empty((7, self.y.size), dtype=y_old.dtype)
        f_old = K[0]
        delta_y = self.y - y_old
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (self._f + f_old)
        np.dot(D_ROWS, K, out=F[3:])
        F[3:] *= h
        return Interpolant(self.t_old, self.t - self.t_old, y_old, F)


class Interpolant:
    """y(t) on one step, from the step start t_old, length h, start state y_old and coefficients F."""

    def __init__(self, t_old, h, y_old, F):
        self.t_old, self.h, self.y_old, self.F = t_old, h, y_old, F

    def __call__(self, t, size=None):
        """The state at t (scalar) or at each time of t (columns), or only its first `size` entries."""
        t = np.asarray(t)
        x = (t - self.t_old) / self.h
        return horner(self.F[:, :size], self.y_old[:size], x if t.ndim == 0 else x[:, None]).T


def horner(F, y_old, x, at=slice(None)):
    """The interpolant y_old + x (F[0] + (1 - x) (F[1] + x (F[2] + ...))) at step fractions x.

    F[d] and y_old broadcast against x; `at` picks each fraction's row where they stack several steps.
    """
    y_old, factors = y_old[at], (x, 1 - x)
    y = np.zeros(np.broadcast_shapes(np.shape(x), y_old.shape), dtype=y_old.dtype)
    for i, f in enumerate(reversed(F)):
        y += f[at]
        y *= factors[i % 2]
    y += y_old
    return y
