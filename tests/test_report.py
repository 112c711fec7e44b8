"""Report items: ``CheckItem.first`` passes on no witness and stops at the first."""

from diracgeom.report import CheckItem


def test_first_passes_on_no_witness():
    assert CheckItem.first("empty", []) == CheckItem("empty", True, None)
    assert CheckItem.first("empty generator", (w for w in ())) == CheckItem("empty generator", True, None)


def test_first_stops_at_the_first_witness():
    def failures():
        yield "first witness"
        raise AssertionError("the check ran past its first witness")

    assert CheckItem.first("stops", failures()) == CheckItem("stops", False, "first witness")
