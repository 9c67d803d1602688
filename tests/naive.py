"""Independent brute-force oracles for cross-validation.

Everything here is written directly from the printed identities with plain
nested loops over lists of Fractions, deliberately sharing no code with the
package (tensors arrive as nested lists via ``as_cells``).
"""

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
    return [[sum((a[i][k] * b[k][j] for k in range(p)), ZERO) for j in range(q)] for i in range(n)]


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


def gauss_nullity(rows, ncols):
    """Kernel dimension by plain rational Gaussian elimination."""
    m = [list(r) for r in rows]
    rank = 0
    col = 0
    nrows = len(m)
    while col < ncols and rank < nrows:
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
        rank += 1
        col += 1
    return ncols - rank


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
