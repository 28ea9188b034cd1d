import numpy as np

from adadfq.tensor import backward


def error_line(capsys) -> str:
    """The one line a failed command printed to stderr."""
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


def check_gradients(f, params, step=1e-5, skip_rows=()):
    """Compare analytic gradients of ``f()`` against central differences.

    Returns the worst relative error over every element of every parameter
    whose first index is not in ``skip_rows``, with a 1e-8 guard in the
    denominator. ``f`` must be deterministic.
    """
    for p in params:
        p.zero_grad()
    backward(f())
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    for p in params:
        p.zero_grad()

    worst = 0.0
    for p, a in zip(params, analytic):
        for i in np.ndindex(p.data.shape):
            if skip_rows and i[0] in skip_rows:
                continue
            orig = p.data[i]
            p.data[i] = orig + step
            hi = float(f().data)
            p.data[i] = orig - step
            lo = float(f().data)
            p.data[i] = orig
            numeric = (hi - lo) / (2.0 * step)
            err = abs(a[i] - numeric) / max(abs(a[i]), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst


def fd_check_skip_rows(loss_fn, param, skip_rows, step=1e-6):
    """Central-difference gradient check that skips the given rows.

    The normalized-entropy losses treat the batch-minimum entropy as a
    constant, so their gradient intentionally deviates from the true
    derivative on the argmin sample's coordinates. This checks every other
    coordinate, the analog of checking hinge gradients away from the kink.
    Returns the worst relative error.
    """
    return check_gradients(loss_fn, [param], step, skip_rows)


def argmin_entropy_row(z_p, z_q):
    """Index of the sample whose disagreement vector has the lowest entropy."""
    d = z_p.data - z_q.data
    e = np.exp(d - d.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, -p * np.log(p), 0.0)
    return int(terms.sum(axis=1).argmin())
