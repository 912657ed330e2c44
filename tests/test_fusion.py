import pytest

from parafusion.fusion import sl2_channels


@pytest.mark.parametrize("level", range(13))
def test_sl2_channels_match_a_brute_force_filter(level):
    for i1 in range(level + 1):
        for i2 in range(level + 1):
            expected = [r for r in range(2 * level + 1)
                        if abs(i1 - i2) <= r <= min(i1 + i2, 2 * level - i1 - i2)
                        and (i1 + i2 + r) % 2 == 0]
            assert list(sl2_channels(level, i1, i2)) == expected
