"""fairaudit: fairness auditing and discrimination correction for binary classifiers."""

__version__ = "0.3.2"
