"""Cyberbullying detection for Indonesian Instagram comments.

Provides corpus handling, a six-stage text preprocessing pipeline driven by
pluggable lexicons, TF-IDF featurization, three classical classifiers
(multinomial Naive Bayes, logistic regression, linear SVM), a from-scratch
BiLSTM classifier with optional additive attention, evaluation and
benchmarking utilities, and a command-line interface.
"""

import os

__version__ = "0.1.0"

# A BLAS or OpenMP thread count above 1 can change the bytes of a trained
# artifact, so unless the user set one, numpy (not loaded yet) runs on one.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(map(os.environ.get, _THREAD_VARS)):
    os.environ.update(dict.fromkeys(_THREAD_VARS, "1"))
