"""Independent oracles used by the test suite.

Nothing here imports from the package's numerical paths: finite
differences, Gaussian elimination, and graph components are written from
first principles so they can referee the implementation.
"""

import numpy as np


def central_diff(f, x, step=1e-6):
    """Central finite-difference gradient of scalar f at x (64-bit)."""
    g = np.zeros_like(x, dtype=np.float64)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xm = x.copy()
        xp[idx] += step
        xm[idx] -= step
        g[idx] = (f(xp) - f(xm)) / (2.0 * step)
    return g


def rel_err(a, b):
    """Relative error between two arrays under the Frobenius norm."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)
    return np.linalg.norm(a - b) / denom


def gauss_solve(a, b):
    """Solve a x = b by Gaussian elimination with partial pivoting."""
    a = np.array(a, dtype=np.float64)
    b = np.array(b, dtype=np.float64)
    n = a.shape[0]
    if b.ndim == 1:
        b = b.reshape(n, 1)
    aug = np.hstack([a, b])
    for col in range(n):
        piv = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[piv, col]) < 1e-300:
            raise ZeroDivisionError("singular system in gauss_solve")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        aug[col] = aug[col] / aug[col, col]
        for row in range(n):
            if row != col and aug[row, col] != 0.0:
                aug[row] = aug[row] - aug[row, col] * aug[col]
    return aug[:, n:]


def lstsq_transition(h0, h1):
    """argmin_M ||M h0 - h1||_F via explicit normal equations.

    Solves M (h0 h0^T) = h1 h0^T row by row with gauss_solve; shares no
    code with the package's pseudo-inverse path.
    """
    gram = h0 @ h0.T
    rhs = h1 @ h0.T
    # M gram = rhs  <=>  gram^T M^T = rhs^T
    mt = gauss_solve(gram.T, rhs.T)
    return mt.T


def connected_components(adjacency, tol=0.0):
    """Count components of the graph whose edges are entries > tol.

    Breadth-first flood fill, independent of the package's label
    propagation in ``sbd.detect_blocks``.
    """
    a = np.asarray(adjacency)
    n = a.shape[0]
    seen = [False] * n
    count = 0
    for start in range(n):
        if seen[start]:
            continue
        count += 1
        queue = [start]
        seen[start] = True
        while queue:
            u = queue.pop()
            for v in range(n):
                if not seen[v] and (a[u, v] > tol or a[v, u] > tol):
                    seen[v] = True
                    queue.append(v)
    return count
