"""Reference models the production paths are tested against.

An oracle here is a separate, obviously-correct thing a test queries — not
a mode of the system under test.  Nothing in ``src/`` imports this package,
and the oracles import nothing private from ``src/``: they restate a
contract (``(time, seq)`` event order; the one-arrival-at-a-time shed rule;
one exponential draw per Poisson arrival; a dispatch queue whose every read
is recomputed over what is pending; ``np.pad`` + ``sliding_window_view``
patches and one scatter over a per-call index; evaluation as the reference
layers' ``model.forward`` per batch; serving accounting as one tuple per
shed arrival and one record per completed request; a training step as
per-key gradient copies, a per-key weighted average and a per-key optimizer
update; a step or an inference batch as the serial wave loop, one
``model.forward`` per virtual node) in the plainest code that satisfies it,
and differential tests hold the production implementation to them on
generated inputs.
"""
