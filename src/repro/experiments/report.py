"""Series, confidence intervals and table rendering.

The paper reports "average results [over 50 runs].  Error intervals
correspond to a confidence interval of 95%" (Sec. V-B).  This module
provides the matching aggregation (Student-t CIs) and the plain-text
tables the benchmark harness prints next to the paper's numbers.

The aggregation is deliberately dependency-free pure Python: rows
feed content digests (golden suites, bench ``rows_sha256`` gates,
spec-keyed persistence), so the same inputs must produce bit-identical
floats on every interpreter and for either trial engine.  The
Student-t critical values for the default 95% confidence level come
from a precomputed constant table, which keeps the default path free
of ``exp``/``log`` calls whose last-ulp behaviour varies across libm
builds; other confidence levels fall back to a deterministic bisection
on the regularised incomplete beta function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence


@dataclass(frozen=True)
class Point:
    """One aggregated data point of a series.

    Attributes:
        x: the swept parameter value.
        mean: sample mean over trials.
        ci_half_width: half width of the 95% confidence interval
            (zero when there is a single trial).
        trials: number of trials aggregated.
    """

    x: float
    mean: float
    ci_half_width: float
    trials: int

    @property
    def ci_low(self) -> float:
        return self.mean - self.ci_half_width

    @property
    def ci_high(self) -> float:
        return self.mean + self.ci_half_width


#: Two-sided 95% Student-t critical values, ``_T_TABLE_975[df - 1]``
#: for df = 1 .. 120.  Precomputed once (Cephes, via scipy 1.x) and
#: frozen as literals: the default aggregation path must not depend on
#: the platform's libm.
_T_TABLE_975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378, 2.039513446396408, 2.0369333434601016,
    2.0345152974493383, 2.0322445093177186, 2.030107928250343, 2.0280940009804502,
    2.0261924630291093, 2.0243941639119694, 2.022690920036761, 2.021075390306273,
    2.019540970441376, 2.0180817028184443, 2.016692199227824, 2.0153675744437636,
    2.014103388880846, 2.012895598919429, 2.0117405137297655, 2.010634757624232,
    2.0095752371292392, 2.008559112100761, 2.007583770315836, 2.006646805061688,
    2.0057459953178687, 2.0048792881880564, 2.0040447832891455, 2.003240718847872,
    2.002465459291007, 2.0017174841452356, 2.000995378088267, 2.0002978220142604,
    1.999623584994939, 1.9989715170333788, 1.998340542520741, 1.997729654317693,
    1.9971379083920038, 1.9965644189523117, 1.996008354025296, 1.9954689314298435,
    1.9949454151072374, 1.994437111771186, 1.9939433678456255, 1.9934635666618719,
    1.992997125889855, 1.992543495180932, 1.9921021540022417, 1.9916726096446642,
    1.9912543953883846, 1.9908470688116906, 1.9904502102301285, 1.990063421254446,
    1.9896863234569029, 1.989318557136572, 1.9889597801751624, 1.9886096669757083,
    1.9882679074772216, 1.98793420623902, 1.9876082815890708, 1.9872898648311692,
    1.986978699506281, 1.9866745407037683, 1.9863771544186177, 1.98608631695113,
    1.9858018143458227, 1.985523441866604, 1.9852510035054978, 1.984984311522457,
    1.9847231860139845, 1.9844674545083556, 1.9842169515863888, 1.9839715184496334,
    1.9837310024091427, 1.9834952564382994, 1.9832641387571865, 1.9830375124487949,
    1.9828152450982082, 1.9825972084539594, 1.98238327810269, 1.982173333455601,
    1.9819672572456814, 1.9817649356337038, 1.9815662580212626, 1.9813711168712348,
    1.9811794075339495, 1.9809910280791319, 1.9808058791336652, 1.9806238637241868,
    1.9804448871236877, 1.9802688567014123, 1.98009568177653, 1.9799252734746162,
)


def _ln_beta(a: float, b: float) -> float:
    """ln B(a, b); only reached off the default confidence level."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularised incomplete beta function
    (Numerical Recipes 6.4); deterministic fixed-point iteration."""
    tiny = 1e-30
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 200):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        a * math.log(x) + b * math.log(1.0 - x) - _ln_beta(a, b)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _student_t_ppf(q: float, df: int) -> float:
    """Two-sided Student-t quantile for ``q`` in (0.5, 1).

    The default confidence level (95% → q = 0.975) is answered from
    :data:`_T_TABLE_975` for df up to 120; everything else runs a
    deterministic bisection on the CDF expressed through the
    regularised incomplete beta function.
    """
    if not 0.5 < q < 1.0:
        raise ValueError(f"t quantile needs 0.5 < q < 1, got {q}")
    if q == 0.975 and 1 <= df <= len(_T_TABLE_975):
        return _T_TABLE_975[df - 1]
    target = 2.0 * (1.0 - q)  # P(|T| > t) = I_{df/(df+t^2)}(df/2, 1/2)
    lo, hi = 0.0, 1.0
    while _betainc(df / 2.0, 0.5, df / (df + hi * hi)) > target:
        hi *= 2.0
        if hi > 1e12:  # pragma: no cover - unreachable for sane q
            break
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if _betainc(df / 2.0, 0.5, df / (df + mid * mid)) > target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def aggregate(x: float, samples: Sequence[float], confidence: float = 0.95) -> Point:
    """Mean and Student-t confidence interval of one sweep cell.

    Sums run left-to-right in pure Python so the result is a
    deterministic function of the sample sequence, identical on every
    interpreter.

    Raises:
        ValueError: on an empty sample.
    """
    if not samples:
        raise ValueError("cannot aggregate zero samples")
    values = [float(value) for value in samples]
    count = len(values)
    mean = sum(values) / count
    if count < 2:
        return Point(x=x, mean=mean, ci_half_width=0.0, trials=count)
    variance = sum((value - mean) ** 2 for value in values) / (count - 1)
    std = math.sqrt(variance)
    if std == 0.0:
        return Point(x=x, mean=mean, ci_half_width=0.0, trials=count)
    sem = std / math.sqrt(count)
    t_critical = _student_t_ppf((1.0 + confidence) / 2.0, count - 1)
    return Point(x=x, mean=mean, ci_half_width=t_critical * sem, trials=count)


@dataclass
class Series:
    """One named curve of a figure."""

    name: str
    points: list[Point] = field(default_factory=list)

    def add(self, x: float, samples: Sequence[float]) -> Point:
        """Aggregate ``samples`` at ``x`` and append the point."""
        point = aggregate(x, samples)
        self.points.append(point)
        return point


@dataclass
class FigureData:
    """All series of one reproduced figure or table.

    Attributes:
        figure_id: e.g. ``"fig3"``.
        title: human-readable description.
        x_label / y_label: axis labels as in the paper.
        series: the curves, in display order.
        notes: free-form remarks (parameter scale, deviations).
    """

    figure_id: str
    title: str
    x_label: str
    y_label: str
    series: list[Series] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def series_named(self, name: str) -> Series:
        """Get or create a series by name."""
        for existing in self.series:
            if existing.name == name:
                return existing
        created = Series(name=name)
        self.series.append(created)
        return created

    def rows(self) -> list[tuple[str, float, float, float, int]]:
        """All data as flat ``(series, x, mean, ci_half_width, trials)``
        rows, in series-then-point order — a convenience view for
        notebooks, diffing and quick assertions (the CSV exporter and
        the JSON round-trip in :mod:`repro.experiments.persistence`
        remain the lossless representations).
        """
        return [
            (series.name, point.x, point.mean, point.ci_half_width, point.trials)
            for series in self.series
            for point in series.points
        ]

    def render(self) -> str:
        """A plain-text table, one row per x value, one column per series."""
        xs = sorted({point.x for s in self.series for point in s.points})
        header = [self.x_label] + [s.name for s in self.series]
        rows: list[list[str]] = []
        by_series = {
            s.name: {point.x: point for point in s.points} for s in self.series
        }
        for x in xs:
            row = [_format_number(x)]
            for s in self.series:
                point = by_series[s.name].get(x)
                if point is None:
                    row.append("-")
                elif point.ci_half_width > 0:
                    row.append(
                        f"{_format_number(point.mean)} ±{_format_number(point.ci_half_width)}"
                    )
                else:
                    row.append(_format_number(point.mean))
            rows.append(row)
        widths = [
            max(len(header[col]), *(len(row[col]) for row in rows)) if rows else len(header[col])
            for col in range(len(header))
        ]
        lines = [f"== {self.figure_id}: {self.title} =="]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
        lines.append("  ".join("-" * widths[i] for i in range(len(header))))
        for row in rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        lines.append(f"(y: {self.y_label})")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _format_number(value: float) -> str:
    """Compact numeric formatting for tables."""
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    if abs(value) >= 100:
        return f"{value:.0f}"
    if abs(value) >= 1:
        return f"{value:.2f}"
    return f"{value:.3f}"
