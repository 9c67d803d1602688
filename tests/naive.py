"""Independent brute-force oracles for cross-validation.

Everything here is written directly from the printed identities with plain
nested loops over lists of Fractions, deliberately sharing no code with the
package (tensors arrive as nested lists via ``as_cells``).
"""

import itertools
from fractions import Fraction

ZERO = Fraction(0)


def as_cells(t3):
    """Package Tensor3 -> plain nested lists."""
    return [[list(row) for row in plane] for plane in t3.entries]


def mat_cells(m):
    return [list(row) for row in m.entries]


def bracket_eval(c, u, v):
    n = len(c)
    out = [ZERO] * n
    for i in range(n):
        for j in range(n):
            if u[i] and v[j]:
                for k in range(n):
                    out[k] += u[i] * v[j] * c[i][j][k]
    return out


def contract(t, axis, m):
    """Transform one axis of a nested-list tensor by m: the entry at index a
    on that axis becomes sum_b m[a][b] * (the entry at index b)."""
    shape = [len(t), len(t[0]), len(t[0][0])]
    shape[axis] = len(m)
    out = [[[ZERO] * shape[2] for _ in range(shape[1])] for _ in range(shape[0])]
    for i in range(shape[0]):
        for j in range(shape[1]):
            for k in range(shape[2]):
                for b in range(len(m[0])):
                    src = [i, j, k]
                    src[axis] = b
                    out[i][j][k] += m[(i, j, k)[axis]][b] * t[src[0]][src[1]][src[2]]
    return out


def mat_vec(m, v):
    return [sum((m[i][j] * v[j] for j in range(len(v))), ZERO) for i in range(len(m))]


def mat_mul(a, b):
    n, p, q = len(a), len(b), len(b[0])
    return [[sum((a[i][k] * b[k][j] for k in range(p) if a[i][k]), ZERO) for j in range(q)] for i in range(n)]


def commutator(a, b):
    """ab - ba of two square nested-list matrices."""
    return cellwise(lambda x, y: x - y, mat_mul(a, b), mat_mul(b, a))


def cellwise(f, a, b):
    """f on each pair of corresponding scalars of two nested lists of one shape."""
    if isinstance(a, list):
        return [cellwise(f, x, y) for x, y in zip(a, b)]
    return f(a, b)


def nonzero_pairs(row):
    """The (index, value) pairs of the nonzero entries of a row, in index order."""
    pairs = []
    for k in range(len(row)):
        if row[k] != 0:
            pairs.append((k, row[k]))
    return pairs


def stored_row(row):
    """A row in the package's stored form: the least common denominator of its
    nonzero entries, and the (index, numerator) pairs over it in index order."""
    pairs = nonzero_pairs(row)
    den = 1
    for _, x in pairs:
        multiple = den
        while multiple % x.denominator:  # the least multiple of den that x.denominator divides
            multiple += den
        den = multiple
    return den, tuple((k, int(x * den)) for k, x in pairs)


def combination(terms, width):
    """sum over (sign, rows, coeffs) terms of sign * sum_b coeffs[b] * rows[b],
    with dense rows of the given width."""
    out = [ZERO] * width
    for sign, rows, coeffs in terms:
        for b in range(len(coeffs)):
            for k in range(width):
                out[k] += sign * coeffs[b] * rows[b][k]
    return out


def basis(n, i):
    return [Fraction(1) if j == i else ZERO for j in range(n)]


def classical_checks(c):
    """(antisymmetry ok, jacobi ok) for a plain bracket, by direct expansion."""
    n = len(c)
    anti = True
    for i in range(n):
        for j in range(n):
            lhs = bracket_eval(c, basis(n, i), basis(n, j))
            rhs = bracket_eval(c, basis(n, j), basis(n, i))
            if any(a + b != 0 for a, b in zip(lhs, rhs)):
                anti = False
    jac = True
    for i in range(n):
        for j in range(n):
            for k in range(n):
                x, y, z = basis(n, i), basis(n, j), basis(n, k)
                t1 = bracket_eval(c, x, bracket_eval(c, y, z))
                t2 = bracket_eval(c, y, bracket_eval(c, z, x))
                t3 = bracket_eval(c, z, bracket_eval(c, x, y))
                if any(a + b + d != 0 for a, b, d in zip(t1, t2, t3)):
                    jac = False
    return anti, jac


def ad_of(c, i):
    """Matrix of ad_{e_i}: column k = [e_i, e_k]."""
    n = len(c)
    cols = [bracket_eval(c, basis(n, i), basis(n, k)) for k in range(n)]
    return [[cols[k][r] for k in range(n)] for r in range(n)]


def killing_gram(c):
    """K[i][j] = trace(ad_i ad_j)."""
    n = len(c)
    ads = [ad_of(c, i) for i in range(n)]
    out = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            prod = mat_mul(ads[i], ads[j])
            out[i][j] = sum((prod[k][k] for k in range(n)), ZERO)
    return out


def rref(rows, ncols):
    """Reduced row echelon form by plain rational Gauss-Jordan elimination:
    (the nonzero rows, their pivot columns)."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    col = 0
    nrows = len(m)
    while col < ncols and len(pivots) < nrows:
        rank = len(pivots)
        piv = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
        col += 1
    return m[:len(pivots)], pivots


def gauss_nullity(rows, ncols):
    """Kernel dimension by plain rational Gaussian elimination."""
    return ncols - len(rref(rows, ncols)[1])


def rref_nullspace(rows, ncols):
    """Kernel basis read off the reduced row echelon form: for each free
    column f, the vector with 1 at f, 0 at the other free columns."""
    r, pivots = rref(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = [ZERO] * ncols
        x[f] = Fraction(1)
        for row, p in zip(r, pivots):
            x[p] = -row[f]
        basis.append(x)
    return basis


def rref_solve(rows, b, ncols):
    """The solution of rows x = b with every free variable zero, or None when
    the system is inconsistent."""
    r, pivots = rref([list(row) + [y] for row, y in zip(rows, b)], ncols + 1)
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for row, p in zip(r, pivots):
        x[p] = row[ncols]
    return x


def derivation_rows(c):
    """Rows of the derivation system d([x,y]) = [dx,y] + [x,dy], assembled
    directly from the formula, unknowns d[r][s] flattened r*n+s."""
    n = len(c)
    rows = []
    for i in range(n):
        for j in range(n):
            w = bracket_eval(c, basis(n, i), basis(n, j))
            for k in range(n):
                row = [ZERO] * (n * n)
                for s in range(n):
                    row[k * n + s] += w[s]
                for r in range(n):
                    row[r * n + i] -= c[r][j][k]
                    row[r * n + j] -= c[i][r][k]
                rows.append(row)
    return rows


def zeta_rows(rhos, d, w):
    """(rows, right-hand sides) of the zeta system rho(x) zeta = rho(d(x)) + zeta rho(x)
    + w zeta rho(d(x)), one equation per (i, a, b) at x = e_i, assembled directly from
    the formula; rhos[i] is the matrix rho(e_i), unknowns zeta[r][s] flattened r*v+s.
    The pi system is the adjoint case, rhos[i] = ad_of(c, i)."""
    n, v = len(rhos), len(rhos[0])
    rows, rhs = [], []
    for i in range(n):
        r_i = rhos[i]
        # rho(d(e_i)) = sum_k d[k][i] rho(e_k)
        rd_i = [[sum((d[k][i] * rhos[k][a][b] for k in range(n)), ZERO) for b in range(v)] for a in range(v)]
        for a in range(v):
            for b in range(v):
                row = [ZERO] * (v * v)
                for s in range(v):
                    row[s * v + b] += r_i[a][s]  # (rho(x) zeta)[a][b]
                    row[a * v + s] -= r_i[s][b] + w * rd_i[s][b]  # (zeta rho(x) + w zeta rho(d(x)))[a][b]
                rows.append(row)
                rhs.append(rd_i[a][b])
    return rows, rhs


def conijenhuis_rows(t, nmap):
    """(rows, right-hand sides) of (S x id) Delta N + (id x N^2) Delta = (S x N) Delta
    + (id x N) Delta N in the unknown S, one equation per (k, a, b) at e_k, assembled
    directly from the formula, unknowns S[r][s] flattened r*n+s.  A two-factor
    tensor M (x) M' acts on the coefficient matrix E of Delta(u) as M E M'^T."""
    n = len(t)
    nt = [[nmap[j][i] for j in range(n)] for i in range(n)]
    n2t = mat_mul(nt, nt)

    def comul_of(u):
        return [[sum((u[k] * t[k][i][j] for k in range(n)), ZERO) for j in range(n)] for i in range(n)]

    rows, rhs = [], []
    for k in range(n):
        delta = comul_of(basis(n, k))
        delta_n = comul_of(mat_vec(nmap, basis(n, k)))
        delta_nt, delta_n_nt, delta_n2t = mat_mul(delta, nt), mat_mul(delta_n, nt), mat_mul(delta, n2t)
        # S (Delta(N e_k) - Delta(e_k) N^T) = Delta(N e_k) N^T - Delta(e_k) (N^2)^T
        coeff = [[delta_n[i][j] - delta_nt[i][j] for j in range(n)] for i in range(n)]
        const = [[delta_n_nt[a][b] - delta_n2t[a][b] for b in range(n)] for a in range(n)]
        for a in range(n):
            for b in range(n):
                row = [ZERO] * (n * n)
                for s in range(n):
                    row[a * n + s] += coeff[s][b]
                rows.append(row)
                rhs.append(const[a][b])
    return rows, rhs


def cocycle_residual(c, t, i, j):
    """Classical compatibility residual Delta([e_i,e_j]) - (ad_{e_i} (x) id +
    id (x) ad_{e_i}) Delta(e_j) + (same with j) Delta(e_i), as a matrix."""
    n = len(c)

    def comul_of(v):
        out = [[ZERO] * n for _ in range(n)]
        for k in range(n):
            if v[k]:
                for a in range(n):
                    for b in range(n):
                        out[a][b] += v[k] * t[k][a][b]
        return out

    def ad_action(idx, e):
        ad = ad_of(c, idx)
        left = mat_mul(ad, e)
        right = mat_mul(e, [[ad[j2][i2] for j2 in range(n)] for i2 in range(n)])
        return [[left[a][b] + right[a][b] for b in range(n)] for a in range(n)]

    lhs = comul_of(bracket_eval(c, basis(n, i), basis(n, j)))
    r1 = ad_action(i, comul_of(basis(n, j)))
    r2 = ad_action(j, comul_of(basis(n, i)))
    return [[lhs[a][b] - r1[a][b] + r2[a][b] for b in range(n)] for a in range(n)]


def bihom_jacobi(c, alpha, beta, i, j, k):
    """[beta^2(e_i),[beta(e_j),alpha(e_k)]] plus its two cyclic shifts in
    (i, j, k), as a dense vector."""
    n = len(c)
    beta2 = mat_mul(beta, beta)

    def term(x, y, z):
        inner = bracket_eval(c, mat_vec(beta, basis(n, y)), mat_vec(alpha, basis(n, z)))
        return bracket_eval(c, mat_vec(beta2, basis(n, x)), inner)

    terms = (term(i, j, k), term(j, k, i), term(k, i, j))
    return [terms[0][r] + terms[1][r] + terms[2][r] for r in range(n)]


def bihom_antisymmetry(c, alpha, beta):
    """[beta(e_i), alpha(e_j)] + [beta(e_j), alpha(e_i)] as dense cells [i][j][k]."""
    n = len(c)

    def twisted(x, y):
        return bracket_eval(c, mat_vec(beta, basis(n, x)), mat_vec(alpha, basis(n, y)))

    return [[[p + q for p, q in zip(twisted(i, j), twisted(j, i))] for j in range(n)] for i in range(n)]


def co_antisymmetry(t, alpha, beta):
    """(beta x alpha) Delta(e_k) + tau (beta x alpha) Delta(e_k) as dense cells
    [k][y][z], with tau the flip of the two factors."""
    n = len(t)
    out = []
    for k in range(n):
        # w[y][z]: (beta x alpha) Delta(e_k), applying the maps to e_i (x) e_j
        w = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if t[k][i][j]:
                    for y in range(n):
                        for z in range(n):
                            w[y][z] += t[k][i][j] * beta[y][i] * alpha[z][j]
        out.append([[w[y][z] + w[z][y] for z in range(n)] for y in range(n)])
    return out


def co_jacobi(t, alpha, beta):
    """(id + c + c^2)(id x beta x alpha)(beta^2 x Delta) Delta(e_k) as dense
    cells [k][x][y][z], with c the cyclic rotation of the three factors."""
    n = len(t)
    beta2 = mat_mul(beta, beta)
    # twisted[b][y][z]: (beta x alpha) Delta(e_b), applying the maps to e_i (x) e_j
    twisted = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for b in range(n):
        for i in range(n):
            for j in range(n):
                if t[b][i][j]:
                    for y in range(n):
                        for z in range(n):
                            twisted[b][y][z] += t[b][i][j] * beta[y][i] * alpha[z][j]
    out = []
    for k in range(n):
        # w[x][y][z]: sum over e_a (x) e_b in Delta(e_k) of beta^2(e_a) (x) twisted[b]
        w = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for a in range(n):
            for b in range(n):
                if t[k][a][b]:
                    for x in range(n):
                        if beta2[x][a]:
                            for y in range(n):
                                for z in range(n):
                                    w[x][y][z] += t[k][a][b] * beta2[x][a] * twisted[b][y][z]
        out.append([[[w[x][y][z] + w[y][z][x] + w[z][x][y] for z in range(n)] for y in range(n)] for x in range(n)])
    return out


def deformed_bracket(c, nmap):
    """The deformed bracket [x,y]_N = [Nx,y] + [x,Ny] - N[x,y] as dense cells
    (Kosmann-Schwarzbach and Magri, Ann. IHP 53 (1990))."""
    n = len(c)
    out = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            x, y = basis(n, i), basis(n, j)
            first = bracket_eval(c, mat_vec(nmap, x), y)
            second = bracket_eval(c, x, mat_vec(nmap, y))
            third = mat_vec(nmap, bracket_eval(c, x, y))
            out[i][j] = [first[k] + second[k] - third[k] for k in range(n)]
    return out


def nonzero_cells(dense):
    """{index tuple: value} of the nonzero scalars of a dense nested list."""
    if not isinstance(dense, list):
        return {(): dense} if dense else {}
    return {(i, *idx): v for i, sub in enumerate(dense) for idx, v in nonzero_cells(sub).items()}


def act(mats, v):
    """sum_k v[k] mats[k]: the action of the vector v, given the matrices of the basis vectors."""
    rows, cols = len(mats[0]), len(mats[0][0])
    terms = [(x, mats[k]) for k, x in enumerate(v) if x]
    return [[sum((x * m[a][b] for x, m in terms), ZERO) for b in range(cols)] for a in range(rows)]


def inverse(m):
    """The inverse of an invertible square matrix, read off the reduced form of [m | I]."""
    n = len(m)
    r, pivots = rref([list(row) + basis(n, i) for i, row in enumerate(m)], 2 * n)
    assert pivots == list(range(n)), "singular matrix"
    return [row[n:] for row in r]


def rep_bracket(c, rhos, alpha, beta, q):
    """rho([beta(x),y]) q - rho(alpha beta(x)) rho(y) + rho(beta(y)) rho(alpha(x)) at x = e_i, y = e_j, as dense
    cells [i][j][a][b]; rhos[i] is the matrix rho(e_i)."""
    n = len(c)
    out = []
    for i in range(n):
        x = basis(n, i)
        plane = []
        for j in range(n):
            y = basis(n, j)
            lhs = mat_mul(act(rhos, bracket_eval(c, mat_vec(beta, x), y)), q)
            first = mat_mul(act(rhos, mat_vec(alpha, mat_vec(beta, x))), act(rhos, y))
            second = mat_mul(act(rhos, mat_vec(beta, y)), act(rhos, mat_vec(alpha, x)))
            plane.append([[lhs[a][b] - first[a][b] + second[a][b] for b in range(len(q))] for a in range(len(q))])
        out.append(plane)
    return out


def apply(*maps_and_vector):
    """m1 m2 ... mk v: the vector v under the matrices m1, ..., mk, the last applied first."""
    *maps, v = maps_and_vector
    for mat in reversed(maps):
        v = mat_vec(mat, v)
    return v


def mixed(cl, cv, rhos, hs, alpha, beta, p, q):
    """The two mixed identities of a matched pair (L, V, rho, h) and the as-printed reading of the second, as dense
    cells: L carries the bracket cl and the maps alpha, beta, V the bracket cv and the maps p, q; rhos[i] is the
    matrix of rho(e_i) on V, hs[c] that of h(f_c) on L.

    first [i][j][c][r], at x = e_i, y = e_j, c = f_c:
        [beta^2(y),h(q(c))alpha(x)] - [beta^2(x),h(q(c))alpha(y)] - h(q^2 rho(alpha^-1(y)) q^-1(c)) alpha beta(x)
        + h(q^2 rho(alpha^-1(x)) q^-1(c)) alpha beta(y) + h(q^2(c))([beta(x),alpha(y)])
    second [a][b][k][s], at a = f_a, b = f_b, z = e_k:
        [q^2(b),rho(beta(z))p(a)] - [q^2(a),rho(beta(z))p(b)] - rho(beta^2 h(p^-1(b)) beta^-1(z)) pq(a)
        + rho(beta^2 h(p^-1(a)) beta^-1(z)) pq(b) + rho(beta^2(z))([q(a),p(b)])
    printed: the second with its two middle terms replaced by - rho(beta^2 h(p^-1(b)) beta^-1(z)) pq(b).
    """
    n, m = len(cl), len(cv)
    ainv, qinv, pinv, binv = inverse(alpha), inverse(q), inverse(p), inverse(beta)

    def h_of(u):
        return act(hs, u)

    def rho_of(x):
        return act(rhos, x)

    first = [[[None] * m for _ in range(n)] for _ in range(n)]
    for i, j, c in itertools.product(range(n), range(n), range(m)):
        x, y, u = basis(n, i), basis(n, j), basis(m, c)
        terms = ((1, bracket_eval(cl, apply(beta, beta, y), apply(h_of(apply(q, u)), alpha, x))),
                 (-1, bracket_eval(cl, apply(beta, beta, x), apply(h_of(apply(q, u)), alpha, y))),
                 (-1, apply(h_of(apply(q, q, rho_of(apply(ainv, y)), qinv, u)), alpha, beta, x)),
                 (1, apply(h_of(apply(q, q, rho_of(apply(ainv, x)), qinv, u)), alpha, beta, y)),
                 (1, apply(h_of(apply(q, q, u)), bracket_eval(cl, apply(beta, x), apply(alpha, y)))))
        first[i][j][c] = [sum(sign * t[r] for sign, t in terms) for r in range(n)]
    second = [[[None] * n for _ in range(m)] for _ in range(m)]
    printed = [[[None] * n for _ in range(m)] for _ in range(m)]
    for a, b, k in itertools.product(range(m), range(m), range(n)):
        fa, fb, z = basis(m, a), basis(m, b), basis(n, k)
        outer = ((1, bracket_eval(cv, apply(q, q, fb), apply(rho_of(apply(beta, z)), p, fa))),
                 (-1, bracket_eval(cv, apply(q, q, fa), apply(rho_of(apply(beta, z)), p, fb))),
                 (1, apply(rho_of(apply(beta, beta, z)), bracket_eval(cv, apply(q, fa), apply(p, fb)))))
        middle = ((-1, apply(rho_of(apply(beta, beta, h_of(apply(pinv, fb)), binv, z)), p, q, fa)),
                  (1, apply(rho_of(apply(beta, beta, h_of(apply(pinv, fa)), binv, z)), p, q, fb)))
        as_printed = ((-1, apply(rho_of(apply(beta, beta, h_of(apply(pinv, fb)), binv, z)), p, q, fb)),)
        second[a][b][k] = [sum(sign * t[s] for sign, t in outer + middle) for s in range(m)]
        printed[a][b][k] = [sum(sign * t[s] for sign, t in outer + as_printed) for s in range(m)]
    return first, second, printed


def ad_vec(c, u):
    """Matrix of ad_u: column k = [u, e_k]."""
    n = len(c)
    cols = [bracket_eval(c, u, basis(n, k)) for k in range(n)]
    return [[cols[k][r] for k in range(n)] for r in range(n)]


def bihom_cocycle(c, t, alpha, beta, twisted_argument=False):
    """Delta([alpha^-1 beta(x), y]) - (ad_beta(x) x beta + beta x ad_{alpha^-1 beta^2(x)}) Delta(y) + (the same with
    x and y swapped) at x = e_i, y = e_j, as dense cells [i][j][a][b] of the coefficient of e_a (x) e_b.  With
    twisted_argument the two ads are taken at alpha^-1 beta alpha(x) and alpha^-2 beta^2 alpha(x) instead.  A
    two-factor map M (x) M' acts on the coefficient matrix E of Delta(u) as M E M'^T."""
    n = len(c)
    ainv = inverse(alpha)
    betat = [[beta[b][a] for b in range(n)] for a in range(n)]

    def comul_of(v):
        return [[sum((v[k] * t[k][a][b] for k in range(n)), ZERO) for b in range(n)] for a in range(n)]

    def side(u, v):
        if twisted_argument:
            first, second = apply(ainv, beta, alpha, u), apply(ainv, ainv, beta, beta, alpha, u)
        else:
            first, second = apply(beta, u), apply(ainv, beta, beta, u)
        e, ad2 = comul_of(v), ad_vec(c, second)
        left = mat_mul(mat_mul(ad_vec(c, first), e), betat)
        right = mat_mul(mat_mul(beta, e), [[ad2[b][a] for b in range(n)] for a in range(n)])
        return [[left[a][b] + right[a][b] for b in range(n)] for a in range(n)]

    out = []
    for i in range(n):
        x = basis(n, i)
        plane = []
        for j in range(n):
            y = basis(n, j)
            lhs, xy, yx = comul_of(bracket_eval(c, apply(ainv, beta, x), y)), side(x, y), side(y, x)
            plane.append([[lhs[a][b] - xy[a][b] + yx[a][b] for b in range(n)] for a in range(n)])
        out.append(plane)
    return out
