"""The four evaluation benchmarks of the paper's Figure 10, in mini-HPF.

* ``shallow`` — the NCAR shallow-water benchmark, following the simplified
  structure printed in the paper's Figure 2 (13 two-dimensional
  ``(BLOCK, BLOCK)`` arrays, one time-stepped sweep of stencil updates).
  Diagonal accesses are written in the pre-coalesced axis-shift form the
  pHPF message-coalescing pass produces (the paper's counts already
  reflect that subsumption).
* ``gravity`` — the NPAC gravity code of Figure 1: 3-d ``(*, BLOCK,
  BLOCK)`` arrays swept along the serial first axis, with four-direction
  NNC on ``g``/``glast`` and two statements of four global sums each.
* ``trimesh`` and ``hydflo`` — the paper gives no listing, only the
  communication structure implied by its table (routine names, NNC
  pattern, per-version message counts); these are synthetic codes with
  exactly that structure (see DESIGN.md's substitution table).

Every program is parametric in the problem size ``n``, the processor-grid
shape ``pr × pc``, and the time-step count, so one source serves the whole
Figure 10 sweep: ``compile_program(SHALLOW, params={"n": 512, ...})``.
"""

from __future__ import annotations

SHALLOW = """
PROGRAM shallow
  PARAM n = 64
  PARAM pr = 5
  PARAM pc = 5
  PARAM nsteps = 50
  PROCESSORS procs(pr, pc)
  TEMPLATE t(n, n)
  DISTRIBUTE t(BLOCK, BLOCK) ONTO procs
  REAL u(n, n) ALIGN WITH t
  REAL v(n, n) ALIGN WITH t
  REAL p(n, n) ALIGN WITH t
  REAL cu(n, n) ALIGN WITH t
  REAL cv(n, n) ALIGN WITH t
  REAL z(n, n) ALIGN WITH t
  REAL h(n, n) ALIGN WITH t
  REAL unew(n, n) ALIGN WITH t
  REAL vnew(n, n) ALIGN WITH t
  REAL pnew(n, n) ALIGN WITH t
  REAL uold(n, n) ALIGN WITH t
  REAL vold(n, n) ALIGN WITH t
  REAL pold(n, n) ALIGN WITH t

  DO step = 1, nsteps
    ! S1: mass flux in x — reads p shifted +x
    cu(2:n-1, 2:n-1) = 0.5 * (p(3:n, 2:n-1) + p(2:n-1, 2:n-1)) * u(2:n-1, 2:n-1)
    ! S2: mass flux in y — reads p shifted +y
    cv(2:n-1, 2:n-1) = 0.5 * (p(2:n-1, 3:n) + p(2:n-1, 2:n-1)) * v(2:n-1, 2:n-1)
    ! S3: height field — reads u shifted -x, v shifted -y
    h(2:n-1, 2:n-1) = p(2:n-1, 2:n-1) + &
        0.25 * (u(1:n-2, 2:n-1) * u(2:n-1, 2:n-1) + v(2:n-1, 1:n-2) * v(2:n-1, 2:n-1))
    ! S4: potential vorticity — reads u +x, v +y, p +x, p +y
    z(2:n-1, 2:n-1) = (4.0 / n) * (u(3:n, 2:n-1) - v(2:n-1, 3:n)) / &
        (p(3:n, 2:n-1) + p(2:n-1, 3:n))
    ! S5: new u — reads z -y, h +x, cv +x, cv -y
    unew(2:n-1, 2:n-1) = uold(2:n-1, 2:n-1) + &
        z(2:n-1, 1:n-2) * (cv(3:n, 2:n-1) + cv(2:n-1, 1:n-2)) - &
        (h(3:n, 2:n-1) - h(2:n-1, 2:n-1))
    ! S6: new v — reads z -x, h +y, cu -x, cu +y
    vnew(2:n-1, 2:n-1) = vold(2:n-1, 2:n-1) - &
        z(1:n-2, 2:n-1) * (cu(1:n-2, 2:n-1) + cu(2:n-1, 3:n)) - &
        (h(2:n-1, 3:n) - h(2:n-1, 2:n-1))
    ! S7: new p — reads cu -x, cv -y
    pnew(2:n-1, 2:n-1) = pold(2:n-1, 2:n-1) - &
        (cu(1:n-2, 2:n-1) - cu(2:n-1, 2:n-1)) - &
        (cv(2:n-1, 1:n-2) - cv(2:n-1, 2:n-1))
    ! S8: time smoothing work array — reads p +x, p +y again
    uold(2:n-1, 2:n-1) = u(2:n-1, 2:n-1) + &
        0.1 * (p(3:n, 2:n-1) - p(2:n-1, 3:n))
    ! time update
    vold(2:n-1, 2:n-1) = v(2:n-1, 2:n-1)
    pold(2:n-1, 2:n-1) = p(2:n-1, 2:n-1)
    u(2:n-1, 2:n-1) = unew(2:n-1, 2:n-1)
    v(2:n-1, 2:n-1) = vnew(2:n-1, 2:n-1)
    p(2:n-1, 2:n-1) = pnew(2:n-1, 2:n-1)
  END DO
END PROGRAM
"""

GRAVITY = """
PROGRAM gravity
  PARAM n = 32
  PARAM pr = 5
  PARAM pc = 5
  PROCESSORS procs(pr, pc)
  REAL g(n, n, n)
  DISTRIBUTE g(*, BLOCK, BLOCK) ONTO procs
  TEMPLATE t2(n, n)
  DISTRIBUTE t2(BLOCK, BLOCK) ONTO procs
  REAL glast(n, n) ALIGN WITH t2
  REAL pot(n, n) ALIGN WITH t2
  REAL acc(n, n) ALIGN WITH t2
  REAL sg
  REAL slast

  glast(:, :) = g(1, :, :)
  DO i = 2, n-1
    ! four-direction NNC on the current g plane (updated by the previous
    ! iteration's sweep, so the exchange must stay inside the loop)
    pot(2:n-1, 2:n-1) = g(i, 3:n, 2:n-1) + g(i, 1:n-2, 2:n-1) + &
        g(i, 2:n-1, 3:n) + g(i, 2:n-1, 1:n-2)
    ! four boundary-row global sums of the current plane (one statement)
    sg = SUM(g(i, n, :)) + SUM(g(i, n-1, :)) + SUM(g(i, 1, :)) + SUM(g(i, 2, :))
    ! four-direction NNC on glast
    acc(2:n-1, 2:n-1) = glast(3:n, 2:n-1) + glast(1:n-2, 2:n-1) + &
        glast(2:n-1, 3:n) + glast(2:n-1, 1:n-2) + sg
    ! four boundary-row global sums of glast (one statement)
    slast = SUM(glast(n, :)) + SUM(glast(n-1, :)) + SUM(glast(1, :)) + SUM(glast(2, :))
    glast(:, :) = g(i, :, :)
    ! local force evaluation on the plane: the expensive physics
    ! (inverse-square-root interactions) that dominates compute time;
    ! all updates are damped so the field stays bounded over the sweep
    acc(2:n-1, 2:n-1) = acc(2:n-1, 2:n-1) / &
        SQRT(pot(2:n-1, 2:n-1) * pot(2:n-1, 2:n-1) + &
             acc(2:n-1, 2:n-1) * acc(2:n-1, 2:n-1) + 1.0) + &
        pot(2:n-1, 2:n-1) / &
        SQRT(pot(2:n-1, 2:n-1) * pot(2:n-1, 2:n-1) + 1.0) + &
        0.0001 * sg + 0.0001 * slast
    pot(2:n-1, 2:n-1) = pot(2:n-1, 2:n-1) / &
        SQRT(acc(2:n-1, 2:n-1) * acc(2:n-1, 2:n-1) + 1.0) + &
        0.1 * acc(2:n-1, 2:n-1) + 0.0001 * sg + 0.0001 * slast
    ! local relaxation sweeps of the potential on the plane (no
    ! communication; purely local work between exchanges)
    DO sm = 1, 6
      pot(2:n-1, 2:n-1) = 0.8 * pot(2:n-1, 2:n-1) + &
          0.2 * acc(2:n-1, 2:n-1) / &
          SQRT(pot(2:n-1, 2:n-1) * pot(2:n-1, 2:n-1) + 0.5)
    END DO
    ! forward sweep: propagate into the next plane
    g(i+1, 2:n-1, 2:n-1) = 0.5 * pot(2:n-1, 2:n-1) + &
        0.3 * acc(2:n-1, 2:n-1) + 0.0001 * slast
  END DO
END PROGRAM
"""

TRIMESH = """
PROGRAM trimesh
  PARAM n = 32
  PARAM pr = 5
  PARAM pc = 5
  PARAM nsweeps = 10
  PROCESSORS procs(pr, pc)
  TEMPLATE t(n, n)
  DISTRIBUTE t(BLOCK, BLOCK) ONTO procs
  REAL x1(n, n) ALIGN WITH t
  REAL x2(n, n) ALIGN WITH t
  REAL x3(n, n) ALIGN WITH t
  REAL x4(n, n) ALIGN WITH t
  REAL x5(n, n) ALIGN WITH t
  REAL x6(n, n) ALIGN WITH t
  REAL r1(n, n) ALIGN WITH t
  REAL r2(n, n) ALIGN WITH t
  REAL r3(n, n) ALIGN WITH t
  REAL w(n, n) ALIGN WITH t

  DO sweep = 1, nsweeps
    ! -- normdot: 24 NNC references (6 arrays x 4 directions), no
    !    redundancy; all in one dependence region so each direction
    !    combines into a single exchange: 24 -> 24 -> 4.
    r1(2:n-1, 2:n-1) = x1(3:n, 2:n-1) + x1(1:n-2, 2:n-1) + &
        x1(2:n-1, 3:n) + x1(2:n-1, 1:n-2) + &
        x2(3:n, 2:n-1) + x2(1:n-2, 2:n-1) + &
        x2(2:n-1, 3:n) + x2(2:n-1, 1:n-2)
    r2(2:n-1, 2:n-1) = x3(3:n, 2:n-1) + x3(1:n-2, 2:n-1) + &
        x3(2:n-1, 3:n) + x3(2:n-1, 1:n-2) + &
        x4(3:n, 2:n-1) + x4(1:n-2, 2:n-1) + &
        x4(2:n-1, 3:n) + x4(2:n-1, 1:n-2)
    r3(2:n-1, 2:n-1) = x5(3:n, 2:n-1) + x5(1:n-2, 2:n-1) + &
        x5(2:n-1, 3:n) + x5(2:n-1, 1:n-2) + &
        x6(3:n, 2:n-1) + x6(1:n-2, 2:n-1) + &
        x6(2:n-1, 3:n) + x6(2:n-1, 1:n-2)
    x1(2:n-1, 2:n-1) = r1(2:n-1, 2:n-1)
    x2(2:n-1, 2:n-1) = r1(2:n-1, 2:n-1) * 0.5
    x3(2:n-1, 2:n-1) = r2(2:n-1, 2:n-1)
    x4(2:n-1, 2:n-1) = r2(2:n-1, 2:n-1) * 0.5
    x5(2:n-1, 2:n-1) = r3(2:n-1, 2:n-1)
    x6(2:n-1, 2:n-1) = r3(2:n-1, 2:n-1) * 0.5
  END DO
END PROGRAM
"""

TRIMESH_GAUSS = """
PROGRAM trimesh_gauss
  PARAM n = 32
  PARAM pr = 5
  PARAM pc = 5
  PARAM nsweeps = 10
  PROCESSORS procs(pr, pc)
  TEMPLATE t(n, n)
  DISTRIBUTE t(BLOCK, BLOCK) ONTO procs
  REAL a(n, n) ALIGN WITH t
  REAL b(n, n) ALIGN WITH t
  REAL c(n, n) ALIGN WITH t
  REAL d(n, n) ALIGN WITH t
  REAL rhs(n, n) ALIGN WITH t

  DO sweep = 1, nsweeps
    ! -- gauss: 13 NNC references (3 arrays x 4 directions + one extra),
    !    no redundancy, combining per direction: 13 -> 13 -> 4.
    rhs(2:n-1, 2:n-1) = a(3:n, 2:n-1) + a(1:n-2, 2:n-1) + &
        a(2:n-1, 3:n) + a(2:n-1, 1:n-2) + &
        b(3:n, 2:n-1) + b(1:n-2, 2:n-1) + &
        b(2:n-1, 3:n) + b(2:n-1, 1:n-2) + &
        c(3:n, 2:n-1) + c(1:n-2, 2:n-1) + &
        c(2:n-1, 3:n) + c(2:n-1, 1:n-2) + &
        d(3:n, 2:n-1)
    a(2:n-1, 2:n-1) = rhs(2:n-1, 2:n-1)
    b(2:n-1, 2:n-1) = rhs(2:n-1, 2:n-1) * 0.5
    c(2:n-1, 2:n-1) = rhs(2:n-1, 2:n-1) * 0.25
    d(2:n-1, 2:n-1) = rhs(2:n-1, 2:n-1) * 0.125
  END DO
END PROGRAM
"""

HYDFLO_FLUX = """
PROGRAM hydflo_flux
  PARAM n = 16
  PARAM pr = 5
  PARAM pc = 5
  PARAM nsteps = 5
  PROCESSORS procs(pr, pc)
  REAL rho(n, n, n)
  REAL e1(n, n, n)
  REAL e2(n, n, n)
  REAL e3(n, n, n)
  REAL q1(n, n, n)
  REAL q2(n, n, n)
  REAL q3(n, n, n)
  REAL f(n, n, n)
  DISTRIBUTE rho(*, BLOCK, BLOCK) ONTO procs
  DISTRIBUTE e1(*, BLOCK, BLOCK) ONTO procs
  DISTRIBUTE e2(*, BLOCK, BLOCK) ONTO procs
  DISTRIBUTE e3(*, BLOCK, BLOCK) ONTO procs
  DISTRIBUTE q1(*, BLOCK, BLOCK) ONTO procs
  DISTRIBUTE q2(*, BLOCK, BLOCK) ONTO procs
  DISTRIBUTE q3(*, BLOCK, BLOCK) ONTO procs
  DISTRIBUTE f(*, BLOCK, BLOCK) ONTO procs

  DO step = 1, nsteps
    ! -- flux: a first- and second-order directional stencil sweep with
    !    heavy repetition of halo references across statements:
    !    52 references, 30 distinct, 6 exchanges after combining.
    !    (second-order ±2 offsets map to the same neighbour in processor
    !    space, so they join the same exchange with a wider halo.)
    f(:, 3:n-2, 3:n-2) = rho(:, 4:n-1, 3:n-2) + rho(:, 2:n-3, 3:n-2) + &
        rho(:, 3:n-2, 4:n-1) + rho(:, 3:n-2, 2:n-3) + &
        rho(:, 5:n, 3:n-2) + rho(:, 1:n-4, 3:n-2) + &
        rho(:, 3:n-2, 5:n) + rho(:, 3:n-2, 1:n-4) + &
        e1(:, 4:n-1, 3:n-2) + e1(:, 2:n-3, 3:n-2) + &
        e1(:, 3:n-2, 4:n-1) + e1(:, 3:n-2, 2:n-3) + &
        e1(:, 5:n, 3:n-2) + e1(:, 1:n-4, 3:n-2) + &
        e1(:, 3:n-2, 5:n) + e1(:, 3:n-2, 1:n-4) + &
        e2(:, 4:n-1, 3:n-2) + e2(:, 2:n-3, 3:n-2) + &
        e2(:, 3:n-2, 4:n-1) + e2(:, 3:n-2, 2:n-3)
    q1(:, 3:n-2, 3:n-2) = e3(:, 4:n-1, 3:n-2) + e3(:, 2:n-3, 3:n-2) + &
        e3(:, 3:n-2, 4:n-1) + e3(:, 3:n-2, 2:n-3) + &
        rho(:, 4:n-1, 3:n-2) + rho(:, 2:n-3, 3:n-2) + &
        rho(:, 3:n-2, 4:n-1) + rho(:, 3:n-2, 2:n-3)
    q2(:, 3:n-2, 3:n-2) = e1(:, 4:n-1, 3:n-2) + e1(:, 2:n-3, 3:n-2) + &
        e2(:, 3:n-2, 4:n-1) + e2(:, 3:n-2, 2:n-3) + &
        e2(:, 4:n-1, 3:n-2) + e2(:, 2:n-3, 3:n-2)
    q3(:, 3:n-2, 3:n-2) = q1(:, 4:n-1, 3:n-2) + q2(:, 4:n-1, 3:n-2) + &
        f(:, 4:n-1, 3:n-2) + &
        q1(:, 3:n-2, 4:n-1) + q2(:, 3:n-2, 4:n-1) + &
        f(:, 3:n-2, 4:n-1) + &
        rho(:, 4:n-1, 3:n-2) + rho(:, 2:n-3, 3:n-2) + &
        rho(:, 3:n-2, 4:n-1) + rho(:, 3:n-2, 2:n-3) + &
        e1(:, 4:n-1, 3:n-2) + e1(:, 2:n-3, 3:n-2) + &
        e1(:, 3:n-2, 4:n-1) + e1(:, 3:n-2, 2:n-3) + &
        e3(:, 4:n-1, 3:n-2) + e3(:, 2:n-3, 3:n-2) + &
        e3(:, 3:n-2, 4:n-1) + e3(:, 3:n-2, 2:n-3)
    rho(:, 3:n-2, 3:n-2) = q3(:, 3:n-2, 3:n-2)
    e1(:, 3:n-2, 3:n-2) = q3(:, 3:n-2, 3:n-2) * 0.5
    e2(:, 3:n-2, 3:n-2) = q3(:, 3:n-2, 3:n-2) * 0.25
    e3(:, 3:n-2, 3:n-2) = f(:, 3:n-2, 3:n-2)
  END DO
END PROGRAM
"""

HYDFLO_HYDRO = """
PROGRAM hydflo_hydro
  PARAM n = 16
  PARAM pr = 5
  PARAM pc = 5
  PARAM nsteps = 5
  PROCESSORS procs(pr, pc)
  REAL d1(n, n, n)
  REAL d2(n, n, n)
  REAL s1(n, n, n)
  REAL s2(n, n, n)
  REAL w1(n, n, n)
  REAL w2(n, n, n)
  DISTRIBUTE d1(*, BLOCK, BLOCK) ONTO procs
  DISTRIBUTE d2(*, BLOCK, BLOCK) ONTO procs
  DISTRIBUTE s1(*, BLOCK, BLOCK) ONTO procs
  DISTRIBUTE s2(*, BLOCK, BLOCK) ONTO procs
  DISTRIBUTE w1(*, BLOCK, BLOCK) ONTO procs
  DISTRIBUTE w2(*, BLOCK, BLOCK) ONTO procs

  DO step = 1, nsteps
    ! -- hydro phase 1: d1/d2 in all four directions (8 refs -> 4 groups)
    w1(:, 2:n-1, 2:n-1) = d1(:, 3:n, 2:n-1) + d2(:, 3:n, 2:n-1) + &
        d1(:, 1:n-2, 2:n-1) + d2(:, 1:n-2, 2:n-1) + &
        d1(:, 2:n-1, 3:n) + d2(:, 2:n-1, 3:n) + &
        d1(:, 2:n-1, 1:n-2) + d2(:, 2:n-1, 1:n-2)
    ! -- hydro phase 2: s1/s2 in +y/+z after w1 is written, so these
    !    cannot merge with phase 1 (4 refs -> 2 groups): 12 -> 12 -> 6.
    s1(:, 2:n-1, 2:n-1) = w1(:, 2:n-1, 2:n-1) * 0.5
    s2(:, 2:n-1, 2:n-1) = w1(:, 2:n-1, 2:n-1) * 0.25
    w2(:, 2:n-1, 2:n-1) = s1(:, 3:n, 2:n-1) + s2(:, 3:n, 2:n-1) + &
        s1(:, 2:n-1, 3:n) + s2(:, 2:n-1, 3:n)
    d1(:, 2:n-1, 2:n-1) = w2(:, 2:n-1, 2:n-1)
    d2(:, 2:n-1, 2:n-1) = w2(:, 2:n-1, 2:n-1) * 0.5
  END DO
END PROGRAM
"""

BENCHMARKS = {
    "shallow": SHALLOW,
    "gravity": GRAVITY,
    "trimesh": TRIMESH,
    "trimesh_gauss": TRIMESH_GAUSS,
    "hydflo_flux": HYDFLO_FLUX,
    "hydflo_hydro": HYDFLO_HYDRO,
}

#: Small sizes that keep every benchmark quick to execute on a 2×2 grid
#: (shallow stays finite; the staleness oracle cannot tell NaN from
#: corruption).
QUICK_PARAMS: dict[str, dict[str, int]] = {
    "shallow": {"n": 8, "nsteps": 2, "pr": 2, "pc": 2},
    "gravity": {"n": 8, "pr": 2, "pc": 2},
    "trimesh": {"n": 8, "nsweeps": 2, "pr": 2, "pc": 2},
    "trimesh_gauss": {"n": 8, "nsweeps": 2, "pr": 2, "pc": 2},
    "hydflo_flux": {"n": 8, "nsteps": 1, "pr": 2, "pc": 2},
    "hydflo_hydro": {"n": 8, "nsteps": 2, "pr": 2, "pc": 2},
}


def synthetic_program(phases: int) -> str:
    """``phases`` stencil statements over ``phases + 1`` arrays, each a
    shifted read of the previous phase's output, inside one time loop.
    The scalability workload: entries grow linearly, CommSet work roughly
    quadratically."""
    arrays = [f"x{i}" for i in range(phases + 1)]
    decls = "\n".join(
        f"REAL {a}(n)\nDISTRIBUTE {a}(BLOCK) ONTO p" for a in arrays
    )
    stmts = "\n".join(
        f"{arrays[i + 1]}(2:n-1) = {arrays[i]}(1:n-2) + {arrays[i]}(3:n)"
        for i in range(phases)
    )
    feedback = f"{arrays[0]}(2:n-1) = {arrays[-1]}(2:n-1)"
    return (
        f"PROGRAM scale\nPARAM n = 64\nPROCESSORS p(4)\n{decls}\n"
        f"DO t = 1, 10\n{stmts}\n{feedback}\nEND DO\nEND"
    )


# The paper's Figure 10 table: routine -> (comm type, orig, nored, comb).
PAPER_TABLE = {
    ("shallow", "main", "NNC"): (20, 14, 8),
    ("gravity", "main", "NNC"): (8, 8, 4),
    ("gravity", "main", "SUM"): (8, 8, 2),
    ("trimesh", "normdot", "NNC"): (24, 24, 4),
    ("trimesh", "gauss", "NNC"): (13, 13, 4),
    ("hydflo", "flux", "NNC"): (52, 30, 6),
    ("hydflo", "hydro", "NNC"): (12, 12, 6),
}
