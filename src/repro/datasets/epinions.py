"""Readers/writers for the *extended Epinions dataset* file formats.

The publicly released extended Epinions dump (the dataset family the paper
crawled its data from) ships pipe-separated text files:

- ``mc.txt`` -- review content metadata:
  ``content_id|author_id|subject_id`` (one review per line; the subject is
  the reviewed object).  We additionally accept an optional 4th
  ``category_id`` column, since the paper's pipeline is per category and
  the original dump carries the category through the subject hierarchy.
- ``rating.txt`` -- helpfulness ratings of reviews:
  ``content_id|member_id|rating`` with ratings ``1..5``
  (mapped onto the paper's ``0.2 .. 1.0`` scale).
- ``user_rating.txt`` -- the explicit web of trust:
  ``my_id|other_id|value`` with value ``1`` (trust) or ``-1`` (distrust;
  dropped, as the paper's framework models trust only); any other value
  is an error.

A subject listed under two categories in ``mc.txt`` is an error too: each
reviewed object belongs to one category.  So are an empty id where a
record needs one, a review id used twice and a second review of one
subject by one author.  Every such line raises :class:`DatasetError`
naming its file and line.  Lines malformed on their own are found while
the files are read, in file order (content, rating, trust); the rules
between records after that, content first.  The first one found raises.

Lines end at ``\\n``, ``\\r\\n`` or a lone ``\\r``.  Lines and fields
are stripped of whitespace (what ``str.strip`` removes); a line left blank
or starting with ``#`` is skipped, and every other line is a row.

:func:`load_epinions_community` splits each file once: one ``|`` split of
its rows joined by ``|`` cuts every field, a numpy count of the separator
bytes gives each row's field count, and a column is a slice of the fields
when every row has the same width.  It strips and looks for comments only
when the text holds something they would remove.  It then applies the
skip rules as array masks and builds the :class:`repro.community.Community`
whole (:meth:`~repro.community.Community.from_columns`);
:func:`write_epinions_files` serialises a community back, enabling
round-trips and fixture creation, and refuses an id the files cannot
carry.
"""

from __future__ import annotations

import os
from itertools import compress
from operator import ne
from typing import Callable, NamedTuple

import numpy as np

from repro import obs
from repro.common.arrays import FloatArray, IntArray, first_true, lookup, repeats
from repro.common.errors import DatasetError
from repro.community import HELPFULNESS_SCALE, Community, RecordColumns

__all__ = ["load_epinions_community", "write_epinions_files"]

_DEFAULT_CATEGORY = "epinions"


def load_epinions_community(
    directory: str,
    *,
    content_file: str = "mc.txt",
    rating_file: str = "rating.txt",
    trust_file: str = "user_rating.txt",
    skip_unknown_reviews: bool = True,
    skip_self_ratings: bool = True,
) -> Community:
    """Load a community from extended-Epinions-format files in ``directory``.

    Parameters
    ----------
    directory:
        Directory holding the three files.  ``trust_file`` may be absent
        (no explicit web of trust -- exactly the situation the paper's
        framework is designed for).
    skip_unknown_reviews:
        Ratings referencing review ids absent from the content file are
        skipped when ``True``, raised as :class:`DatasetError` otherwise.
    skip_self_ratings:
        Epinions dumps occasionally contain authors rating their own
        reviews; the community model forbids that, so they are dropped by
        default, and raised as :class:`DatasetError` otherwise.

    Returns
    -------
    Community
        Users in sorted id order (every author, rater and truster or
        trustee of a trust line); one category per distinct category id
        found, sorted (or a single ``"epinions"`` category when the content
        file has no category column); objects in the order their subject
        first appears; reviews, ratings and trust statements in file order.
        Of a repeated (rater, review) or (truster, trustee) pair the first
        line is kept, as the site would; self-trust is dropped.
    """
    content_path = os.path.join(directory, content_file)
    rating_path = os.path.join(directory, rating_file)
    trust_path = os.path.join(directory, trust_file)
    if not os.path.exists(content_path):
        raise DatasetError(f"content file not found: {content_path}")
    if not os.path.exists(rating_path):
        raise DatasetError(f"rating file not found: {rating_path}")

    with obs.span("datasets.parse"):
        content = _parse_content(content_path)
        ratings = _parse_ratings(rating_path)
        trust = _parse_trust(trust_path) if os.path.exists(trust_path) else None

    sources, targets = (trust.sources, trust.targets) if trust else ([], [])
    users = sorted({*content.authors, *ratings.members, *sources, *targets})
    categories = sorted(set(content.categories))
    user_pos = dict(zip(users, range(len(users))))
    # subjects (reviewed objects) may be shared across reviews; parsing
    # checked that each has one category
    category_of = dict(zip(content.subjects, content.categories))
    writer = lookup(content.authors, user_pos)
    obj = lookup(content.subjects, dict(zip(category_of, range(len(category_of)))))

    review_pos = dict(zip(content.reviews, range(len(content.reviews))))
    repeated_id = repeats(lookup(content.reviews, review_pos))
    bad = first_true(repeated_id | repeats(writer << 32 | obj))
    if bad is not None:
        where = f"{content_path}:{_line_of(content.text, bad)}"
        if repeated_id[bad]:
            raise DatasetError(
                f"{where}: reviews: duplicate primary key {content.reviews[bad]!r}"
            )
        raise DatasetError(
            f"{where}: unique (writer, object) violated: {content.authors[bad]!r} "
            f"already reviewed {content.subjects[bad]!r}"
        )

    review = lookup(ratings.reviews, review_pos)
    rater = lookup(ratings.members, user_pos)
    known = review >= 0
    own = np.zeros(known.size, dtype=bool)
    own[known] = rater[known] == writer[review[known]]
    rejected = np.zeros(known.size, dtype=bool)
    if not skip_unknown_reviews:
        rejected |= ~known
    if not skip_self_ratings:
        rejected |= own
    bad = first_true(rejected)
    if bad is not None:
        where = f"{rating_path}:{_line_of(ratings.text, bad)}"
        review_id = ratings.reviews[bad]
        if not known[bad]:
            raise DatasetError(f"{where}: rating references unknown review {review_id!r}")
        raise DatasetError(
            f"{where}: user {ratings.members[bad]!r} cannot rate their own review "
            f"{review_id!r}"
        )
    # keep the first line of each (rater, review) pair, as the site would
    keep = known & ~own & ~repeats(rater << 32 | review)

    truster, trustee = lookup(sources, user_pos), lookup(targets, user_pos)
    keep_trust = (truster != trustee) & ~repeats(truster << 32 | trustee)

    return Community.from_columns(
        RecordColumns(
            users=users,
            categories=categories,
            objects=list(category_of),
            object_category=lookup(
                list(category_of.values()), dict(zip(categories, range(len(categories))))
            ),
            reviews=content.reviews,
            review_writer=writer,
            review_object=obj,
            rating_rater=rater[keep],
            rating_review=review[keep],
            rating_value=ratings.values[keep],
            trust_truster=truster[keep_trust],
            trust_trustee=trustee[keep_trust],
        ),
        name="epinions",
    )


def write_epinions_files(
    community: Community,
    directory: str,
    *,
    content_file: str = "mc.txt",
    rating_file: str = "rating.txt",
    trust_file: str = "user_rating.txt",
) -> None:
    """Serialise ``community`` into extended-Epinions-format files.

    Raises :class:`DatasetError`, before opening any file, for a record
    whose id the files cannot carry: an id holding ``|``, ``\\n`` or
    ``\\r`` breaks its line, one with leading or trailing whitespace
    loads back stripped, and a review or truster id starting with ``#``
    starts a line the loader reads as a comment.  Raises it too for a
    rating value not within 1e-9 of a helpfulness stage.
    """
    trust = community.trust_edges()
    _check_ids(community, trust)
    raters, reviews, values = community.encoded_ratings()
    stages = np.abs(values[:, None] - np.asarray(HELPFULNESS_SCALE)) < 1e-9
    bad = first_true(~stages.any(axis=1))
    if bad is not None:
        raise DatasetError(f"value {float(values[bad])!r} is not on the helpfulness scale")
    users, review_ids = community.user_ids(), community.encoded_reviews()[0]
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, content_file), "w", encoding="utf-8") as f:
        for review in community.iter_reviews():
            category = community.review_category(review.review_id)
            f.write(
                "|".join(
                    (review.review_id, review.writer_id, review.object_id, category)
                )
                + "\n"
            )
    with open(os.path.join(directory, rating_file), "w", encoding="utf-8") as f:
        f.writelines(
            f"{review_ids[j]}|{users[i]}|{stars}\n"
            for i, j, stars in zip(
                raters.tolist(), reviews.tolist(), (stages.argmax(axis=1) + 1).tolist()
            )
        )
    with open(os.path.join(directory, trust_file), "w", encoding="utf-8") as f:
        for source, target in trust:
            f.write("|".join((source, target, "1")) + "\n")


def _check_ids(community: Community, trust: list[tuple[str, str]]) -> None:
    """Raise :class:`DatasetError` for the first record whose id the files
    cannot carry; ``trust`` is the community's trust edges."""
    review_ids = community.encoded_reviews()[0]
    kinds = (
        ("user", community.user_ids()),
        ("category", community.category_ids()),
        ("object", community.object_ids()),
        ("review", review_ids),
    )
    for kind, ids in kinds:
        for record_id in ids:
            if "|" in record_id or "\n" in record_id or "\r" in record_id:
                raise DatasetError(
                    f"{kind} {record_id!r}: an id holding '|', '\\n' or '\\r' "
                    f"cannot be written"
                )
            if record_id.strip() != record_id:
                raise DatasetError(
                    f"{kind} {record_id!r}: an id with leading or trailing whitespace "
                    f"cannot be written"
                )
    for review_id in review_ids:
        if review_id.startswith("#"):
            raise DatasetError(
                f"review {review_id!r}: an id starting with '#' would start a comment line"
            )
    for truster, trustee in trust:
        if truster.startswith("#"):
            raise DatasetError(
                f"trust statement {(truster, trustee)!r}: a truster id starting with '#' "
                f"would start a comment line"
            )


# ------------------------------------------------------------------- parsing

#: What ``str.strip`` removes from ASCII text, but the line end ``"\n"``.
_ASCII_BLANKS = " \t\r\x0b\x0c\x1c\x1d\x1e\x1f"

#: Every byte but the separator and the line end, for ``bytes.translate``.
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b"|\n")


class _Rows(NamedTuple):
    """A file's rows: its stripped lines that are neither blank nor comments."""

    text: str  # the file's text, for line numbers
    widths: IntArray  # the fields on each row
    short: int | None  # the first row with fewer fields than the file needs
    columns: list[list[str]]  # the leading fields of the rows before ``short``


class _Content(NamedTuple):
    text: str
    reviews: list[str]
    authors: list[str]
    subjects: list[str]
    categories: list[str]


class _Ratings(NamedTuple):
    text: str
    reviews: list[str]
    members: list[str]
    values: FloatArray


class _Trust(NamedTuple):
    sources: list[str]
    targets: list[str]


def _parse_content(path: str) -> _Content:
    text, widths, short, columns = _read_rows(path, 3, 4, _DEFAULT_CATEGORY)
    reviews, authors, subjects, categories = columns
    # a subject belongs to the category of its first line
    first_line = dict(zip(reversed(subjects), range(len(subjects) - 1, -1, -1)))
    known = list(map(first_line.__getitem__, subjects))
    moved = np.fromiter(
        map(ne, categories, map(categories.__getitem__, known)), dtype=bool, count=len(known)
    )
    _raise_first(
        path,
        text,
        (short, lambda i: f"expected 3 or 4 fields, got {widths[i]}"),
        (_first_empty(reviews), lambda i: "empty review id"),
        (_first_empty(authors), lambda i: "empty author id"),
        (_first_empty(subjects), lambda i: "empty subject id"),
        (_first_empty(categories), lambda i: "empty category id"),
        (
            first_true(moved),
            lambda i: f"subject {subjects[i]!r} listed under category {categories[i]!r}, "
            f"but line {_line_of(text, known[i])} lists it under {categories[known[i]]!r}",
        ),
    )
    return _Content(text, reviews, authors, subjects, categories)


def _parse_ratings(path: str) -> _Ratings:
    text, widths, short, columns = _read_rows(path, 3, 3)
    reviews, members, raw = columns
    problems = {stars: _stars_problem(stars) for stars in set(raw)}
    _raise_first(
        path,
        text,
        (short, lambda i: f"expected 3 fields, got {widths[i]}"),
        (
            min((raw.index(stars) for stars, bad in problems.items() if bad), default=None),
            lambda i: str(problems[raw[i]]),
        ),
        (_first_empty(members), lambda i: "empty member id"),
    )
    value_of = {stars: HELPFULNESS_SCALE[int(stars) - 1] for stars in problems}
    values = np.fromiter(map(value_of.__getitem__, raw), dtype=np.float64, count=len(raw))
    return _Ratings(text, reviews, members, values)


def _parse_trust(path: str) -> _Trust:
    text, widths, short, columns = _read_rows(path, 2, 3, "1")
    sources, targets, values = columns
    # distrust (-1) is outside the paper's model: those lines are dropped
    trusted = np.fromiter(map("-1".__ne__, values), dtype=bool, count=len(values))
    kept = np.flatnonzero(trusted)
    sources, targets = list(compress(sources, trusted)), list(compress(targets, trusted))
    empty_source, empty_target = _first_empty(sources), _first_empty(targets)
    _raise_first(
        path,
        text,
        (short, lambda i: f"expected >=2 fields, got {widths[i]}"),
        (
            min((values.index(v) for v in set(values) - {"1", "-1"}), default=None),
            lambda i: f"trust value must be 1 or -1, got {values[i]!r}",
        ),
        (None if empty_source is None else int(kept[empty_source]), lambda i: "empty truster id"),
        (None if empty_target is None else int(kept[empty_target]), lambda i: "empty trustee id"),
    )
    return _Trust(sources, targets)


def _read_rows(path: str, needed: int, count: int, default: str = "") -> _Rows:
    """The rows of the file at ``path``, split once.

    The columns hold fields ``0 .. count - 1``, stripped, of every row
    before the first with fewer than ``needed`` fields; a row without a
    field gives ``default`` there.
    """
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    # strip and filter lines only where that can change something
    padded = not text.isascii() or any(map(text.__contains__, _ASCII_BLANKS))
    if padded or "#" in text or "\n\n" in text or text.startswith("\n"):
        lines = list(map(str.strip, text.split("\n"))) if padded else text.split("\n")
        if "#" in text:
            rows = [line for line in lines if line and line[0] != "#"]
        else:
            rows = list(filter(None, lines))
        body = "\n".join(rows)
    else:
        # a clean file: every line is a row, so the text is already its rows
        body = text[:-1] if text.endswith("\n") else text
    widths = _field_counts(body)
    short = first_true(widths < needed)
    # every row's fields in order, cut by one split
    fields = body.replace("\n", "|").split("|") if body else []
    if short is not None:
        del fields[int(widths[:short].sum()) :]
    columns = _columns(fields, widths[:short], count, default)
    if padded:
        columns = [list(map(str.strip, column)) for column in columns]
    return _Rows(text, widths, short, columns)


def _field_counts(body: str) -> IntArray:
    """The field count of each row of ``body`` (rows joined by ``"\n"``):
    its separators, plus one."""
    if not body:
        return np.zeros(0, dtype=np.int64)
    # the separators and line ends of the rows, in order
    marks = np.frombuffer(body.encode().translate(None, _NOT_SEPARATORS), np.uint8)
    ends = np.flatnonzero(marks == ord("\n"))
    return np.diff(ends, prepend=-1, append=marks.size)


def _columns(fields: list[str], widths: IntArray, count: int, default: str) -> list[list[str]]:
    """Fields ``0 .. count - 1`` of the rows whose ``widths`` fields are,
    in order, ``fields``: one list per field; a row without a field gives
    ``default`` there."""
    if not widths.size:
        return [[] for _ in range(count)]
    if widths.min() == widths.max():
        width = int(widths[0])
        return [fields[k::width] if k < width else [default] * widths.size for k in range(count)]
    # gather by row start; a row without field k reads the default appended last
    starts = np.cumsum(widths) - widths
    fields.append(default)
    return [
        list(map(fields.__getitem__, np.where(widths > k, starts + k, len(fields) - 1).tolist()))
        for k in range(count)
    ]


def _line_of(text: str, row: int) -> int:
    """The line number of a row."""
    lines = enumerate(map(str.strip, text.split("\n")), start=1)
    return [n for n, line in lines if line and line[0] != "#"][row]


def _first_empty(ids: list[str]) -> int | None:
    return ids.index("") if "" in ids else None


def _raise_first(
    path: str, text: str, *checks: tuple[int | None, Callable[[int], str]]
) -> None:
    """Raise the failed check on the earliest row; on one row, the first listed.

    Each check is the first row it fails on (``None`` if none) and the
    message for that row.
    """
    failed = [(row, order, message) for order, (row, message) in enumerate(checks) if row is not None]
    if failed:
        row, _, message = min(failed, key=lambda failure: failure[:2])
        raise DatasetError(f"{path}:{_line_of(text, row)}: {message(row)}")


def _stars_problem(raw: str) -> str | None:
    """Why ``raw`` is not a 1..5 star rating (``None`` when it is one)."""
    try:
        stars = int(raw)
    except ValueError:
        return f"bad rating {raw!r}"
    return None if 1 <= stars <= 5 else f"rating must be 1..5, got {stars}"
