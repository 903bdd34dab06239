"""Re-export of :func:`dpreg.mechanisms.dp_rss_poly_fit`, the degree-d fitter,
so that code calling ``dpreg.polynomial.dp_rss_poly_fit`` keeps working."""

from .mechanisms import dp_rss_poly_fit

__all__ = ["dp_rss_poly_fit"]
